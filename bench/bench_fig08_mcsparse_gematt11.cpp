// Figure 8 — MCSPARSE DFACT loop 500 on gematt11.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(8); }
