#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "wlp/core/while_general.hpp"
#include "wlp/workloads/linked_list.hpp"

namespace wlp {
namespace {

using workloads::kNullNode;
using workloads::NodePool;

/// Index-linked list over a plain vector: next[i] or -1.
struct ChainFixture {
  std::vector<long> next;
  explicit ChainFixture(long n) : next(static_cast<std::size_t>(n)) {
    std::iota(next.begin(), next.end(), 1);
    if (n > 0) next[static_cast<std::size_t>(n - 1)] = -1;
  }
  long head() const { return next.empty() ? -1 : 0; }
  auto next_fn() const {
    return [this](long c) { return next[static_cast<std::size_t>(c)]; };
  }
  static bool is_end(long c) { return c < 0; }
};

// gtest prints a parameter without operator<< as a dump of its bytes, and
// gtest_discover_tests puts that dump into each ctest name. So the case holds
// no pointer and no padding: the names then read the same in every build and
// every run. The name suffix is derived from `which`.
enum class Gen : std::int64_t { k1, k2, k3 };

struct GeneralCase {
  Gen which;
  std::int64_t procs;
};

class GeneralMethods : public ::testing::TestWithParam<GeneralCase> {
 protected:
  template <class Body>
  ExecReport run(ThreadPool& pool, const ChainFixture& c, Body&& body) {
    switch (GetParam().which) {
      case Gen::k1:
        return while_general1(pool, c.head(), c.next_fn(), &ChainFixture::is_end, body);
      case Gen::k2:
        return while_general2(pool, c.head(), c.next_fn(), &ChainFixture::is_end, body);
      case Gen::k3:
        return while_general3(pool, c.head(), c.next_fn(), &ChainFixture::is_end, body);
    }
    std::abort();
  }
};

TEST_P(GeneralMethods, VisitsEveryElementExactlyOnce) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  // General-3's blocks run 1, 2, 4, ... iterations per worker, so the short
  // lists end inside a claimed block.
  for (long n : {503L, 1L, 2L, 3L, 5L, 6L, 7L, 12L, 31L, 64L}) {
    ChainFixture chain(n);
    std::vector<std::atomic<int>> hit(static_cast<std::size_t>(n));
    const ExecReport r = run(pool, chain, [&](long i, long cursor, unsigned) {
      EXPECT_EQ(i, cursor);  // chain identity: position == index
      hit[static_cast<std::size_t>(cursor)].fetch_add(1);
      return IterAction::kContinue;
    });
    EXPECT_EQ(r.trip, n);
    EXPECT_EQ(r.overshot, 0);
    for (long i = 0; i < n; ++i)
      EXPECT_EQ(hit[static_cast<std::size_t>(i)].load(), 1) << "n " << n << " i " << i;
  }
}

TEST_P(GeneralMethods, EmptyList) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  ChainFixture chain(0);
  std::atomic<int> runs{0};
  const ExecReport r = run(pool, chain, [&](long, long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 0);
  EXPECT_EQ(runs.load(), 0);
}

TEST_P(GeneralMethods, SingleElement) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  ChainFixture chain(1);
  std::atomic<int> runs{0};
  const ExecReport r = run(pool, chain, [&](long, long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 1);
  EXPECT_EQ(runs.load(), 1);
}

TEST_P(GeneralMethods, RemainderVariantExitRecoversTrip) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  // On the longer list General-3's blocks have grown well past one
  // iteration by the exit, so the exit lands inside a claimed block.
  for (auto [n, exit_at] : {std::pair{800L, 390L}, std::pair{20000L, 5003L},
                            std::pair{20000L, 12345L}}) {
    ChainFixture chain(n);
    std::vector<std::atomic<int>> hit(static_cast<std::size_t>(n));
    const ExecReport r = run(pool, chain, [&](long i, long, unsigned) {
      hit[static_cast<std::size_t>(i)].fetch_add(1);
      return i == exit_at ? IterAction::kExit : IterAction::kContinue;
    });
    EXPECT_EQ(r.trip, exit_at);
    // Every iteration up to the exit ran once; none ran twice.
    long started = 0;
    for (long i = 0; i < n; ++i) {
      const int h = hit[static_cast<std::size_t>(i)].load();
      if (i <= exit_at) {
        EXPECT_EQ(h, 1) << "exit " << exit_at << " i " << i;
      }
      EXPECT_LE(h, 1) << "exit " << exit_at << " i " << i;
      started += h;
    }
    EXPECT_EQ(r.started, started);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, GeneralMethods,
                         ::testing::Values(GeneralCase{Gen::k1, 4}, GeneralCase{Gen::k2, 4},
                                           GeneralCase{Gen::k3, 4}),
                         [](const auto& info) {
                           return "General" +
                                  std::to_string(static_cast<int>(info.param.which) + 1);
                         });

TEST(GeneralHops, General2TraversesPerProcessorGeneral13CooperateOrReplay) {
  ThreadPool pool(4);
  const long n = 400;
  ChainFixture chain(n);
  auto noop = [](long, long, unsigned) { return IterAction::kContinue; };
  const ExecReport g1 =
      while_general1(pool, chain.head(), chain.next_fn(), &ChainFixture::is_end, noop);
  const ExecReport g2 =
      while_general2(pool, chain.head(), chain.next_fn(), &ChainFixture::is_end, noop);
  const ExecReport g3 =
      while_general3(pool, chain.head(), chain.next_fn(), &ChainFixture::is_end, noop);
  // General-1: the list is traversed once, cooperatively.
  EXPECT_EQ(g1.dispatcher_steps, n);
  // General-2: every processor walks the whole list.
  EXPECT_EQ(g2.dispatcher_steps, n * 4);
  // General-3: replay keeps total hops near one walk per processor at most.
  EXPECT_GE(g3.dispatcher_steps, n - 1);
  EXPECT_LE(g3.dispatcher_steps, n * 4);
}

// General-3's block runner keeps its cursor's index, the started count and
// the exit minimum in locals and writes them back once per block, and
// General-2 and General-3 both load the next cursor before each body.  The
// reported trip,
// dispatcher_steps and started must still equal per-hop and per-iteration
// tallies: on short lists that end inside a claimed block, with an RV exit
// inside one, with a kExitAfter on the last node, a kExit at index 0 and a
// bound `u` below the list's length.  The counting `next` fails the test if
// the look-ahead ever calls it on an end cursor.  General-2's walk stays
// exactly min(n, u) hops per processor whenever no RV exit lands below that.
// The second pass launches from a task of the same pool, where the workers
// run one after another in vpn order: General-3's worker 0 then walks alone,
// one hop per body it starts, the last of which finds the end or the cut.
TEST(GeneralHops, General3CountsMatchPerIterationTallies) {
  struct Case {
    long n;
    long exit_at;  // the body returns `act` here; at n or beyond it never does
    IterAction act;
    long u;
  };
  constexpr long kNoBound = std::numeric_limits<long>::max();
  constexpr IterAction kExit = IterAction::kExit;
  constexpr IterAction kExitAfter = IterAction::kExitAfter;
  const Case cases[] = {
      {1, 1, kExit, kNoBound},          {5, 5, kExit, kNoBound},
      {12, 12, kExit, kNoBound},        {31, 31, kExit, kNoBound},
      {503, 503, kExit, kNoBound},      {20000, 20000, kExit, kNoBound},
      {20000, 5003, kExit, kNoBound},   {503, 502, kExitAfter, kNoBound},
      {1, 0, kExitAfter, kNoBound},     {503, 0, kExit, kNoBound},
      {1, 0, kExit, kNoBound},          {503, 503, kExit, 200},
      {20000, 20000, kExit, 7777},      {503, 503, kExit, 1}};
  const long p = 4;
  ThreadPool pool(static_cast<unsigned>(p));
  for (const Gen which : {Gen::k2, Gen::k3}) {
    for (const bool nested : {false, true}) {
      for (const Case& c : cases) {
        SCOPED_TRACE("General-" + std::to_string(static_cast<int>(which) + 1) + " n " +
                     std::to_string(c.n) + " exit " + std::to_string(c.exit_at) +
                     (c.act == kExit ? "" : " after") + " u " + std::to_string(c.u) +
                     (nested ? " nested" : ""));
        ChainFixture chain(c.n);
        std::atomic<long> hops{0}, ran{0};
        const auto next = [&](long cur) {
          hops.fetch_add(1, std::memory_order_relaxed);
          if (ChainFixture::is_end(cur)) {
            ADD_FAILURE() << "next called on an end cursor";
            return cur;
          }
          return chain.next[static_cast<std::size_t>(cur)];
        };
        const auto body = [&](long i, long, unsigned) {
          ran.fetch_add(1, std::memory_order_relaxed);
          return i == c.exit_at ? c.act : IterAction::kContinue;
        };
        const auto is_end = &ChainFixture::is_end;
        ExecReport r;
        const auto run = [&] {
          r = which == Gen::k2 ? while_general2(pool, chain.head(), next, is_end, body, c.u)
                               : while_general3(pool, chain.head(), next, is_end, body, c.u);
        };
        if (nested) {
          pool.parallel([&](unsigned vpn) {
            if (vpn == 0) run();
          });
        } else {
          run();
        }
        const long walk = std::min(c.n, c.u);
        const long trip = std::min(walk, c.act == kExit ? c.exit_at : c.exit_at + 1);
        EXPECT_EQ(r.trip, trip);
        EXPECT_EQ(r.dispatcher_steps, hops.load());
        EXPECT_EQ(r.started, ran.load());
        if (which == Gen::k2 && trip == walk) {
          EXPECT_EQ(r.dispatcher_steps, walk * p);
        }
        if (which == Gen::k3 && nested) {
          EXPECT_EQ(r.started, std::min(walk, c.exit_at + 1));
          EXPECT_EQ(r.dispatcher_steps, r.started);
        }
      }
    }
  }
}

TEST(GeneralOnNodePool, PayloadTraversalMatchesLogicalOrder) {
  ThreadPool pool(4);
  // Shuffled storage order: the traversal must still see logical order.
  auto list = NodePool<long>::make(257, 99, [](long i, long& v) { v = i * 3; });
  std::vector<std::atomic<long>> seen(257);
  const ExecReport r = while_general3(
      pool, list.head(), [&](std::int32_t c) { return list.next(c); },
      [](std::int32_t c) { return NodePool<long>::is_end(c); },
      [&](long i, std::int32_t c, unsigned) {
        seen[static_cast<std::size_t>(i)].store(list.payload(c));
        return IterAction::kContinue;
      });
  EXPECT_EQ(r.trip, 257);
  for (long i = 0; i < 257; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), i * 3);
}

TEST(GeneralMethodsUpperBound, RespectsU) {
  ThreadPool pool(4);
  const long n = 1000;
  ChainFixture chain(n);
  // Bounds that are no multiple of a block cut the claim that straddles
  // `u`; the last input's RV exit lands inside a block below `u`.
  for (auto [u, exit_at] : {std::pair{100L, n}, std::pair{1L, n}, std::pair{3L, n},
                            std::pair{333L, n}, std::pair{999L, n},
                            std::pair{777L, 401L}}) {
    std::vector<std::atomic<int>> hit(n);
    const ExecReport r = while_general3(
        pool, chain.head(), chain.next_fn(), &ChainFixture::is_end,
        [&](long i, long, unsigned) {
          hit[static_cast<std::size_t>(i)].fetch_add(1);
          return i == exit_at ? IterAction::kExit : IterAction::kContinue;
        },
        u);
    const long trip = std::min(u, exit_at);
    EXPECT_EQ(r.trip, trip);
    for (long i = 0; i < n; ++i) {
      const int h = hit[static_cast<std::size_t>(i)].load();
      if (i < trip) {
        EXPECT_EQ(h, 1) << "u " << u << " i " << i;
      }
      if (i >= u) {
        EXPECT_EQ(h, 0) << "u " << u << " i " << i;
      }
      EXPECT_LE(h, 1) << "u " << u << " i " << i;
    }
    if (exit_at >= u) {
      EXPECT_EQ(r.started, u);
    }
  }
}

}  // namespace
}  // namespace wlp
