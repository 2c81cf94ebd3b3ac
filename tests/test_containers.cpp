#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "poi360/common/fifo.h"
#include "poi360/common/id_ring.h"

// The two container templates every bounded history in src/poi360 rests
// on. They move values out of slots, grow while wrapped and overwrite at a
// cap, so this file is built into poi360_rtp_tests, which asan_gate runs in
// full.

namespace poi360 {
namespace {

// Fifo against the std::deque it replaces: after every operation of a
// random mix the two hold the same elements in the same order. The
// scripted prefix wraps the ring before it has to grow, so a doubling
// unwraps a queue whose head is not slot 0; push_front from slot 0 wraps
// the other way.
TEST(Fifo, MatchesStdDequeUnderRandomOps) {
  Fifo<int> fifo;
  std::deque<int> ref;
  int next = 0;
  const auto same = [&]() {
    ASSERT_EQ(fifo.size(), ref.size());
    ASSERT_EQ(fifo.empty(), ref.empty());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(fifo[i], ref[i]);
    std::vector<int> walked(fifo.begin(), fifo.end());
    ASSERT_EQ(walked, std::vector<int>(ref.begin(), ref.end()));
    if (!ref.empty()) {
      ASSERT_EQ(fifo.front(), ref.front());
      ASSERT_EQ(fifo.back(), ref.back());
    }
  };

  for (int i = 0; i < 6; ++i) {
    fifo.push_back(next);
    ref.push_back(next++);
  }
  for (int i = 0; i < 5; ++i) {
    fifo.pop_front();
    ref.pop_front();
  }
  ASSERT_EQ(fifo.capacity(), 8u);
  for (int i = 0; i < 7; ++i) {  // fills the ring across its end
    fifo.push_back(next);
    ref.push_back(next++);
  }
  same();
  ASSERT_EQ(fifo.capacity(), 8u);
  fifo.push_front(next);  // grows while wrapped
  ref.push_front(next++);
  EXPECT_EQ(fifo.capacity(), 16u);
  same();
  fifo.clear();
  ref.clear();
  fifo.push_front(next);  // from slot 0 to the last slot
  ref.push_front(next++);
  same();

  std::mt19937 rng(2024);
  std::size_t grew_wrapped = 0;
  for (int op = 0; op < 20000; ++op) {
    const int kind = static_cast<int>(rng() % 100);
    const std::size_t capacity = fifo.capacity();
    const bool wrapped = !ref.empty() && &fifo.back() < &fifo.front();
    if (kind < 40) {
      fifo.push_back(next);
      ref.push_back(next++);
    } else if (kind < 55) {
      fifo.push_front(next);
      ref.push_front(next++);
    } else if (kind < 93) {
      if (!ref.empty()) {
        fifo.pop_front();
        ref.pop_front();
      }
    } else if (kind < 99) {
      const int mod = 2 + static_cast<int>(rng() % 5);
      std::vector<int> seen;
      const std::size_t erased = fifo.erase_if([&](int v) {
        seen.push_back(v);
        return v % mod == 0;
      });
      ASSERT_EQ(seen, std::vector<int>(ref.begin(), ref.end()));
      const std::size_t before = ref.size();
      std::erase_if(ref, [mod](int v) { return v % mod == 0; });
      ASSERT_EQ(erased, before - ref.size());
    } else {
      fifo.clear();
      ref.clear();
    }
    same();
    if (wrapped && fifo.capacity() != capacity) ++grew_wrapped;
  }
  EXPECT_GT(fifo.capacity(), 16u);
  EXPECT_GT(grew_wrapped, 0u);
}

// The bounded-history idiom of the Fifo's users (FBCC's last k + 1
// reports, the BSR round trip, the SLO checkpoints, the soak snapshots):
// at the bound the oldest element goes first.
void push_bounded(Fifo<int>& fifo, std::size_t bound, int value) {
  if (fifo.size() == bound) fifo.pop_front();
  fifo.push_back(value);
}

TEST(BoundedFifo, FifoOverwrite) {
  Fifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  push_bounded(fifo, 3, 1);
  push_bounded(fifo, 3, 2);
  EXPECT_EQ(fifo.size(), 2u);
  EXPECT_EQ(fifo.front(), 1);
  EXPECT_EQ(fifo.back(), 2);
  push_bounded(fifo, 3, 3);
  EXPECT_EQ(fifo.size(), 3u);
  push_bounded(fifo, 3, 4);  // evicts 1
  EXPECT_EQ(fifo.front(), 2);
  EXPECT_EQ(fifo.back(), 4);
  EXPECT_EQ(fifo[0], 2);
  EXPECT_EQ(fifo[1], 3);
  EXPECT_EQ(fifo[2], 4);
  EXPECT_EQ(fifo.capacity(), 8u);  // spare slots beyond the bound
}

TEST(BoundedFifo, ClearAndRefill) {
  Fifo<int> fifo;
  push_bounded(fifo, 2, 1);
  push_bounded(fifo, 2, 2);
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  push_bounded(fifo, 2, 9);
  EXPECT_EQ(fifo.size(), 1u);
  EXPECT_EQ(fifo.front(), 9);
}

TEST(BoundedFifo, WraparoundKeepsFifoOrderAtCapacity) {
  // Bound 11 is FBCC's default k + 1: not a power of two, so the ring has
  // 16 slots and the window wraps across its end.
  for (const std::size_t bound : {std::size_t{4}, std::size_t{11}}) {
    Fifo<int> fifo;
    const int b = static_cast<int>(bound);
    // Push far past the bound: the window must always hold the last
    // `bound` values in arrival order, wherever the head happens to sit.
    for (int i = 0; i < 75; ++i) {
      push_bounded(fifo, bound, i);
      const std::size_t n = fifo.size();
      ASSERT_EQ(n, static_cast<std::size_t>(std::min(i + 1, b)));
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(fifo[j], i - static_cast<int>(n - 1 - j));
      }
      EXPECT_EQ(fifo.back(), i);
    }
    EXPECT_EQ(fifo.front(), 75 - b);
    EXPECT_EQ(fifo.capacity(), bound <= 8 ? 8u : 16u);
  }
}

TEST(BoundedFifo, PushOnFullEvictsExactlyOne) {
  Fifo<int> fifo;
  push_bounded(fifo, 3, 1);
  push_bounded(fifo, 3, 2);
  push_bounded(fifo, 3, 3);
  ASSERT_EQ(fifo.size(), 3u);
  push_bounded(fifo, 3, 4);
  EXPECT_EQ(fifo.size(), 3u);  // size saturates, never exceeds the bound
  EXPECT_EQ(fifo.front(), 2);
  EXPECT_EQ(fifo.back(), 4);
}

TEST(BoundedFifo, PopFrontReturnsOldest) {
  Fifo<int> fifo;
  for (int v : {1, 2, 3, 4}) push_bounded(fifo, 3, v);  // 4 evicts 1
  EXPECT_EQ(fifo.front(), 2);
  fifo.pop_front();
  EXPECT_EQ(fifo.front(), 3);
  fifo.pop_front();
  EXPECT_EQ(fifo.size(), 1u);
  EXPECT_EQ(fifo.front(), 4);
  fifo.pop_front();
  EXPECT_TRUE(fifo.empty());
}

TEST(BoundedFifo, InterleavedPushPopInvariants) {
  for (const std::size_t bound : {std::size_t{3}, std::size_t{11}}) {
    Fifo<int> fifo;
    const int b = static_cast<int>(bound);
    int next_push = 0;
    int next_pop = 0;
    // Alternate bursts of pushes and pops so the head wraps repeatedly;
    // values must come out strictly in FIFO order, never more than the
    // bound at once.
    for (int round = 0; round < 12; ++round) {
      for (int i = 0; i < b - 1 + round % 3; ++i) {
        push_bounded(fifo, bound, next_push++);
      }
      next_pop = std::max(next_pop, next_push - b);  // eviction skips some
      while (!fifo.empty()) {
        EXPECT_LE(fifo.size(), bound);
        EXPECT_EQ(fifo.front(), next_pop++);
        fifo.pop_front();
      }
      EXPECT_EQ(next_pop, next_push);
    }
    EXPECT_EQ(fifo.capacity(), bound <= 8 ? 8u : 16u);
  }
}

// Differential test against the unordered_map the ring replaces in a
// session's in-flight frame table: dense increasing ids, most erased a few
// ids later in random order, a few kept alive for thousands of ids (so
// their slots collide with new ids and force growth), plus repeated
// emplaces and erases of missing ids.
TEST(IdRing, MatchesUnorderedMapWithLongLivedEntries) {
  for (unsigned seed : {1u, 7u, 42u}) {
    std::mt19937 rng(seed);
    IdRing<std::int64_t> ring;
    std::unordered_map<std::int64_t, std::int64_t> ref;
    std::vector<std::int64_t> recent;
    const auto check = [&](std::int64_t id) {
      const std::int64_t* got = ring.find(id);
      const auto it = ref.find(id);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "id " << id;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << "id " << id;
      }
    };
    for (std::int64_t id = 0; id < 6000; ++id) {
      const std::int64_t value = id * 31 + 7;
      const auto [fresh, inserted] = ring.try_emplace(id, value);
      EXPECT_TRUE(inserted);
      EXPECT_EQ(*fresh, value);
      ref.emplace(id, value);
      // Present: both keep the first value.
      const auto [kept, again] = ring.try_emplace(id, -1);
      EXPECT_FALSE(again);
      EXPECT_EQ(*kept, value);
      ref.emplace(id, -1);
      if (rng() % 50 != 0) recent.push_back(id);  // else: long-lived
      while (recent.size() > 20 || (!recent.empty() && rng() % 3 == 0)) {
        const std::size_t k = rng() % recent.size();
        const std::int64_t victim = recent[k];
        recent.erase(recent.begin() + static_cast<std::ptrdiff_t>(k));
        EXPECT_EQ(ring.erase(victim), ref.erase(victim) == 1);
      }
      const std::int64_t probe =
          id - static_cast<std::int64_t>(rng() % 4000);
      check(probe);
      EXPECT_FALSE(ring.erase(id + 1));  // never inserted yet
      ASSERT_EQ(ring.size(), ref.size());
    }
    EXPECT_GT(ring.capacity(), 4096u) << "long-lived ids forced growth";
    for (std::int64_t id = 0; id < 6001; ++id) check(id);
    for (const auto& [id, value] : ref) ASSERT_TRUE(ring.erase(id));
    EXPECT_EQ(ring.size(), 0u);
  }
}

// A capped ring against a node-map reference of its contract: an id is
// held iff it was inserted, not erased, and no id inserted after it shares
// its residue mod the cap. Ids run dense with gaps from 1000 on, past the
// ring's size, with re-inserts of recent ids, erases and a few negative
// ids; below the cap of 256 the ring grows from 64 slots while the held
// ids wrap around its end.
TEST(IdRing, CappedRingKeepsTheLastIdOfEachResidue) {
  for (const std::size_t cap : {1u, 2u, 4u, 64u, 256u}) {
    std::mt19937 rng(static_cast<unsigned>(cap));
    IdRing<std::int64_t> ring(cap);
    std::map<std::int64_t, std::int64_t> ref;                // id -> value
    std::unordered_map<std::uint64_t, std::int64_t> holder;  // residue -> id
    const auto residue = [cap](std::int64_t id) {
      return static_cast<std::uint64_t>(id) % cap;
    };
    const auto check = [&](std::int64_t id) {
      const std::int64_t* got = ring.find(id);
      const auto it = ref.find(id);
      ASSERT_EQ(got != nullptr, it != ref.end())
          << "cap " << cap << " id " << id;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << "id " << id;
      }
    };
    std::int64_t next = 1000;
    bool grew = false;
    for (int op = 0; op < 20000; ++op) {
      const unsigned kind = rng() % 100;
      std::int64_t id = next;
      if (kind < 60) {
        next += rng() % 10 == 0 ? 2 + rng() % 40 : 1;
        id = next;
      } else if (kind < 80) {
        id = next - static_cast<std::int64_t>(rng() % (2 * cap + 4));
      } else if (kind < 82) {
        id = -static_cast<std::int64_t>(rng() % 100000);
      } else if (kind < 90) {
        const std::int64_t victim =
            next - static_cast<std::int64_t>(rng() % (cap + 4));
        const bool held = ref.erase(victim) == 1;
        if (held) holder.erase(residue(victim));
        ASSERT_EQ(ring.erase(victim), held);
        ASSERT_EQ(ring.size(), ref.size());
        continue;
      } else {
        check(next - static_cast<std::int64_t>(rng() % (2 * cap + 4)));
        continue;
      }
      const std::int64_t value = id * 7 + op;
      const std::size_t before = ring.capacity();
      const auto [got, inserted] = ring.try_emplace(id, value);
      const auto it = ref.find(id);
      ASSERT_EQ(inserted, it == ref.end()) << "cap " << cap << " id " << id;
      if (inserted) {
        const auto h = holder.find(residue(id));
        if (h != holder.end()) ref.erase(h->second);
        holder[residue(id)] = id;
        ref.emplace(id, value);
        EXPECT_EQ(*got, value);
      } else {
        EXPECT_EQ(*got, it->second);  // present: the first value is kept
      }
      ASSERT_EQ(ring.size(), ref.size()) << "cap " << cap << " op " << op;
      ASSERT_LE(ring.capacity(), cap);
      grew = grew || (before != 0 && ring.capacity() != before);
    }
    for (std::int64_t id = next - static_cast<std::int64_t>(cap) - 50;
         id <= next + 1; ++id) {
      check(id);
    }
    EXPECT_EQ(ring.capacity(), cap);
    EXPECT_EQ(grew, cap > 64) << "cap " << cap;
  }
}

}  // namespace
}  // namespace poi360
