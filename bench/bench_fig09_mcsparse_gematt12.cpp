// Figure 9 — MCSPARSE DFACT loop 500 on gematt12.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(9); }
