#include "loops.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "harness.hpp"
#include "wlp/workloads/spice.hpp"
#include "wlp/workloads/track.hpp"

namespace e2e {

namespace wl = wlp::workloads;

namespace {

template <class... A>
std::string format(const char* fmt, A... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

// TRACK FPTRAK 300.  Every configuration field is named, so a field added
// to TrackConfig cannot shift the meaning of the others.
class Track final : public Loop {
 public:
  explicit Track(std::uint64_t seed)
      : cfg_{.candidates = 250'000, .error_position = 0.93, .seed = 7 + seed},
        loop_(cfg_),
        init_pos_(loop_.fresh_positions()),
        init_vel_(loop_.fresh_velocities()),
        pos_(init_pos_),
        vel_(init_vel_) {
    want_trip_ = loop_.run_sequential(pos_, vel_);
    want_pos_ = pos_;
    want_vel_ = vel_;
    if (want_trip_ != loop_.expected_trip())
      throw std::runtime_error("TRACK reference trip differs from the planted exit");
  }

  std::vector<std::string> config_lines() const override {
    return {format("TrackConfig{.candidates=%ld, .error_position=%g, .seed=%llu} "
                   "method=run_induction1 trip=%ld",
                   cfg_.candidates, cfg_.error_position,
                   static_cast<unsigned long long>(cfg_.seed), want_trip_)};
  }

  void reset() override {
    std::ranges::copy(init_pos_, pos_.begin());
    std::ranges::copy(init_vel_, vel_.begin());
    trip_ = -1;
  }

  void run_sequential() override { trip_ = loop_.run_sequential(pos_, vel_); }

  wlp::ExecReport run_parallel(wlp::ThreadPool& pool) override {
    wlp::ExecReport r = loop_.run_induction1(pool, pos_, vel_);
    trip_ = r.trip;
    return r;
  }

  bool has_ideal() const override { return true; }
  void run_ideal(wlp::ThreadPool& pool) override {
    trip_ = loop_.run_ideal(pool, pos_, vel_).trip;
  }

  std::string check() const override {
    std::string d = diff_trip(trip_, want_trip_);
    if (d.empty()) d = diff_array("pos", pos_, want_pos_);
    if (d.empty()) d = diff_array("vel", vel_, want_vel_);
    return d;
  }

 private:
  wl::TrackConfig cfg_;
  wl::TrackLoop loop_;
  std::vector<double> init_pos_, init_vel_;  // the pre-loop state
  std::vector<double> pos_, vel_;            // the state every run writes
  std::vector<double> want_pos_, want_vel_;  // the sequential reference
  long want_trip_ = 0;
  long trip_ = -1;
};

// SPICE LOAD 40: an RI loop over a linked list of capacitor models.
class Spice final : public Loop {
 public:
  explicit Spice(std::uint64_t seed)
      : cfg_{.devices = 100'000,
             .min_terms = 4,
             .max_terms = 24,
             .bjt_fraction = 0.0,
             .mosfet_fraction = 0.0,
             .seed = 42 + seed},
        load_(cfg_),
        init_(load_.fresh_matrix()),
        matrix_(init_) {
    load_.run_sequential(matrix_);
    want_ = matrix_;
  }

  std::vector<std::string> config_lines() const override {
    return {format("SpiceConfig{.devices=%ld, .min_terms=%d, .max_terms=%d, "
                   ".bjt_fraction=%g, .mosfet_fraction=%g, .seed=%llu} "
                   "method=run_general3",
                   cfg_.devices, cfg_.min_terms, cfg_.max_terms, cfg_.bjt_fraction,
                   cfg_.mosfet_fraction, static_cast<unsigned long long>(cfg_.seed))};
  }

  void reset() override {
    std::ranges::copy(init_, matrix_.begin());
    trip_ = -1;
  }

  void run_sequential() override {
    load_.run_sequential(matrix_);
    trip_ = load_.devices();
  }

  wlp::ExecReport run_parallel(wlp::ThreadPool& pool) override {
    wlp::ExecReport r = load_.run_general3(pool, matrix_);
    trip_ = r.trip;
    return r;
  }

  std::string check() const override {
    std::string d = diff_trip(trip_, load_.devices());
    if (d.empty()) d = diff_array("matrix", matrix_, want_);
    return d;
  }

 private:
  wl::SpiceConfig cfg_;
  wl::SpiceLoad load_;
  std::vector<double> init_, matrix_, want_;
  long trip_ = -1;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names{"track", "spice"};
  return names;
}

std::unique_ptr<Loop> make_loop(std::string_view workload, std::uint64_t seed) {
  if (workload == "track") return std::make_unique<Track>(seed);
  if (workload == "spice") return std::make_unique<Spice>(seed);
  return nullptr;
}

}  // namespace e2e
