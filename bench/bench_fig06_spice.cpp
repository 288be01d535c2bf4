// Figure 6 — SPICE LOAD loop 40: General-1 vs General-3.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(6); }
