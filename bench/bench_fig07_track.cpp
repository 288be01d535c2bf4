// Figure 7 — TRACK FPTRAK loop 300: Induction-1 with backups and stamps.
#include "paper_figures.hpp"

int main() { return wlp::bench::run_figure(7); }
