// Figure 11 — MCSPARSE DFACT loop 500 on saylr4.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(11); }
