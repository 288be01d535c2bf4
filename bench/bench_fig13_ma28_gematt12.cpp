// Figure 13 — MA28 MA30AD loops 270/320 on gematt12.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(13); }
