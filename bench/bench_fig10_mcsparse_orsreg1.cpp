// Figure 10 — MCSPARSE DFACT loop 500 on orsreg1.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(10); }
