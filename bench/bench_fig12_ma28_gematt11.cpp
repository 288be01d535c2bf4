// Figure 12 — MA28 MA30AD loops 270/320 on gematt11.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(12); }
