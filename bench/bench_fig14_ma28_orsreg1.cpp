// Figure 14 — MA28 MA30AD loops 270/320 on orsreg1.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(14); }
