// Unit tests for the vstd substrate: spec collections, linear permissions,
// flat permission maps, and the internal-storage static list.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/vstd/arena.h"
#include "src/vstd/check.h"
#include "src/vstd/permission_map.h"
#include "src/vstd/points_to.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_seq.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/static_list.h"
#include "src/vstd/types.h"

namespace atmo {

// White-box access to a tree's shape, for the FromSorted differential.
struct PersistentTreeTestPeer {
  // The entries in pre-order: with the in-order fixed by the keys, this
  // pins the shape node for node.
  template <typename Tree>
  static std::vector<typename Tree::Entry> PreOrder(const Tree& t) {
    std::vector<typename Tree::Entry> out;
    auto walk = [&out](auto& self, const auto* n) -> void {
      if (n != nullptr) {
        out.push_back(n->entry);
        self(self, n->left);
        self(self, n->right);
      }
    };
    walk(walk, t.root_);
    return out;
  }
};

namespace {

// ---------------------------------------------------------------------------
// SpecMap
// ---------------------------------------------------------------------------

TEST(SpecMapTest, InsertRemoveContains) {
  SpecMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  SpecMap<int, std::string> m2 = m.insert(1, "one");
  EXPECT_FALSE(m.contains(1)) << "insert is functional: original unchanged";
  EXPECT_TRUE(m2.contains(1));
  EXPECT_EQ(m2.at(1), "one");
  SpecMap<int, std::string> m3 = m2.remove(1);
  EXPECT_FALSE(m3.contains(1));
  EXPECT_TRUE(m2.contains(1)) << "remove is functional: original unchanged";
}

TEST(SpecMapTest, ExtensionalEquality) {
  SpecMap<int, int> a = SpecMap<int, int>().insert(1, 10).insert(2, 20);
  SpecMap<int, int> b = SpecMap<int, int>().insert(2, 20).insert(1, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, b.insert(3, 30));
  EXPECT_NE(a, b.insert(1, 11));
}

TEST(SpecMapTest, ForAllAndExists) {
  SpecMap<int, int> m = SpecMap<int, int>().insert(1, 2).insert(2, 4).insert(3, 6);
  EXPECT_TRUE(m.ForAll([](int k, int v) { return v == 2 * k; }));
  EXPECT_FALSE(m.ForAll([](int k, int v) { return v > 2 * k; }));
  EXPECT_TRUE(m.Exists([](int k, int v) { return k == 2 && v == 4; }));
  EXPECT_FALSE(m.Exists([](int, int v) { return v == 5; }));
}

TEST(SpecMapTest, AgreeExceptAt) {
  using IntMap = SpecMap<int, int>;
  IntMap a = IntMap().insert(1, 10).insert(2, 20);
  IntMap b = a.insert(2, 99);
  EXPECT_TRUE(IntMap::AgreeExceptAt(a, b, 2));
  EXPECT_FALSE(IntMap::AgreeExceptAt(a, b, 1));
  // Key added on one side only, at the excluded key: still agreeing.
  IntMap c = a.remove(2);
  EXPECT_TRUE(IntMap::AgreeExceptAt(a, c, 2));
  EXPECT_FALSE(IntMap::AgreeExceptAt(a, c, 1));
}

TEST(SpecMapTest, Submap) {
  SpecMap<int, int> a = SpecMap<int, int>().insert(1, 10);
  SpecMap<int, int> b = a.insert(2, 20);
  EXPECT_TRUE(a.IsSubmapOf(b));
  EXPECT_FALSE(b.IsSubmapOf(a));
  EXPECT_TRUE(a.IsSubmapOf(a));
  EXPECT_FALSE(a.IsSubmapOf(b.insert(1, 11)));
}

TEST(SpecMapTest, AtOutsideDomainIsCheckFailure) {
  ScopedThrowOnCheckFailure guard;
  SpecMap<int, int> m;
  EXPECT_THROW(m.at(7), CheckViolation);
}

// ---------------------------------------------------------------------------
// SpecSet
// ---------------------------------------------------------------------------

TEST(SpecSetTest, BasicOps) {
  SpecSet<int> s{1, 2, 3};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(4));
  SpecSet<int> s2 = s.insert(4);
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s2.contains(4));
  EXPECT_FALSE(s2.remove(4).contains(4));
}

TEST(SpecSetTest, UnionIntersectDifference) {
  SpecSet<int> a{1, 2, 3};
  SpecSet<int> b{3, 4};
  EXPECT_EQ(a.Union(b), (SpecSet<int>{1, 2, 3, 4}));
  EXPECT_EQ(a.Intersect(b), (SpecSet<int>{3}));
  EXPECT_EQ(a.Difference(b), (SpecSet<int>{1, 2}));
}

TEST(SpecSetTest, DisjointnessAndSubset) {
  SpecSet<int> a{1, 2};
  SpecSet<int> b{3, 4};
  SpecSet<int> c{2, 3};
  EXPECT_TRUE(a.IsDisjointFrom(b));
  EXPECT_FALSE(a.IsDisjointFrom(c));
  EXPECT_TRUE((SpecSet<int>{1}).IsSubsetOf(a));
  EXPECT_FALSE(c.IsSubsetOf(a));
  EXPECT_TRUE(SpecSet<int>{}.IsDisjointFrom(a));
  EXPECT_TRUE(SpecSet<int>{}.IsSubsetOf(a));
}

TEST(SpecSetTest, Quantifiers) {
  SpecSet<int> s{2, 4, 6};
  EXPECT_TRUE(s.ForAll([](int x) { return x % 2 == 0; }));
  EXPECT_TRUE(s.Exists([](int x) { return x == 4; }));
  EXPECT_FALSE(s.Exists([](int x) { return x == 5; }));
}

// ---------------------------------------------------------------------------
// Persistent representation: differential and property tests
// ---------------------------------------------------------------------------
//
// SpecMap and SpecSet share one persistent treap (persistent_tree.h). The
// oracle is std::map / std::set: every public operation runs on both over
// randomized op sequences, on a pool of versions that share nodes, and the
// results must agree — including the set algebra, the frame-condition
// helpers and the ordered iteration.

class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Key() { return static_cast<int>(Next() % 201) - 100; }  // signed keys

 private:
  std::uint64_t state_;
};

using IntMap = SpecMap<int, int>;
using IntSet = SpecSet<int>;
using OracleMap = std::map<int, int>;
using OracleSet = std::set<int>;

std::vector<std::pair<int, int>> MapItems(const IntMap& m) {
  std::vector<std::pair<int, int>> out;
  for (const auto& [k, v] : m) {
    out.emplace_back(k, v);
  }
  return out;
}

std::vector<std::pair<int, int>> MapItems(const OracleMap& m) {
  return std::vector<std::pair<int, int>>(m.begin(), m.end());
}

std::vector<int> SetItems(const IntSet& s) { return std::vector<int>(s.begin(), s.end()); }
std::vector<int> SetItems(const OracleSet& s) { return std::vector<int>(s.begin(), s.end()); }

bool OracleAgreeExcept(const OracleMap& a, const OracleMap& b, const std::set<int>& except) {
  for (int k = -100; k <= 100; ++k) {
    if (except.count(k) != 0) {
      continue;
    }
    auto ia = a.find(k);
    auto ib = b.find(k);
    if ((ia == a.end()) != (ib == b.end()) || (ia != a.end() && ia->second != ib->second)) {
      return false;
    }
  }
  return true;
}

void ExpectSameMap(const IntMap& m, const OracleMap& o) {
  ASSERT_EQ(m.size(), o.size());
  ASSERT_EQ(m.empty(), o.empty());
  ASSERT_EQ(MapItems(m), MapItems(o));
}

TEST(PersistentTreeTest, MapMatchesStdMapOracle) {
  SplitMix rng(1);
  std::vector<std::pair<IntMap, OracleMap>> versions(1);
  for (int step = 0; step < 4000; ++step) {
    auto& [m, o] = versions[rng.Next() % versions.size()];
    int k = rng.Key();
    int v = static_cast<int>(rng.Next() % 4);  // few values: equal writes happen
    switch (rng.Next() % 6) {
      case 0:
        m.set(k, v);
        o[k] = v;
        break;
      case 1:
        m.erase(k);
        o.erase(k);
        break;
      case 2: {  // functional update: a new version sharing nodes
        OracleMap o2 = o;
        o2[k] = v;
        versions.emplace_back(m.insert(k, v), o2);
        break;
      }
      case 3: {
        OracleMap o2 = o;
        o2.erase(k);
        versions.emplace_back(m.remove(k), o2);
        break;
      }
      default:
        versions.emplace_back(m, o);  // plain copy
        break;
    }
    if (versions.size() > 24) {
      versions.erase(versions.begin() + static_cast<std::ptrdiff_t>(rng.Next() % 24));
    }

    // Queries against every version pair.
    const auto& [a, oa] = versions[rng.Next() % versions.size()];
    const auto& [b, ob] = versions[rng.Next() % versions.size()];
    int q = rng.Key();
    int q2 = rng.Key();
    ASSERT_EQ(a.contains(q), oa.count(q) != 0) << "step " << step;
    if (oa.count(q) != 0) {
      ASSERT_EQ(a.at(q), oa.at(q));
    }
    ASSERT_EQ(a == b, oa == ob) << "step " << step;
    bool submap = std::all_of(oa.begin(), oa.end(), [&](const auto& e) {
      auto it = ob.find(e.first);
      return it != ob.end() && it->second == e.second;
    });
    ASSERT_EQ(a.IsSubmapOf(b), submap) << "step " << step;
    ASSERT_EQ(IntMap::AgreeExceptAt(a, b, q), OracleAgreeExcept(oa, ob, {q})) << "step " << step;
    ASSERT_EQ(IntMap::AgreeExceptAt2(a, b, q, q2), OracleAgreeExcept(oa, ob, {q, q2}))
        << "step " << step;
    ASSERT_EQ(IntMap::AgreeExcept(a, b, [](int key) { return key % 3 == 0; }),
              OracleAgreeExcept(oa, ob, [] {
                std::set<int> mult3;
                for (int key = -99; key <= 99; key += 3) {
                  mult3.insert(key);
                }
                return mult3;
              }()))
        << "step " << step;
    ASSERT_EQ(a.ForAll([&](int key, int val) { return key != q || val == 0; }),
              oa.count(q) == 0 || oa.at(q) == 0);
    ASSERT_EQ(a.Exists([&](int key, int) { return key == q; }), oa.count(q) != 0);
    ASSERT_NO_FATAL_FAILURE(ExpectSameMap(a, oa)) << "step " << step;
  }
  for (const auto& [m, o] : versions) {
    ExpectSameMap(m, o);
  }
}

TEST(PersistentTreeTest, SetMatchesStdSetOracle) {
  SplitMix rng(2);
  std::vector<std::pair<IntSet, OracleSet>> versions(1);
  for (int step = 0; step < 4000; ++step) {
    auto& [s, o] = versions[rng.Next() % versions.size()];
    int k = rng.Key();
    switch (rng.Next() % 5) {
      case 0:
        s.add(k);
        o.insert(k);
        break;
      case 1:
        s.erase(k);
        o.erase(k);
        break;
      case 2: {
        OracleSet o2 = o;
        o2.insert(k);
        versions.emplace_back(s.insert(k), o2);
        break;
      }
      case 3: {
        OracleSet o2 = o;
        o2.erase(k);
        versions.emplace_back(s.remove(k), o2);
        break;
      }
      default:
        versions.emplace_back(s, o);
        break;
    }
    if (versions.size() > 24) {
      versions.erase(versions.begin() + static_cast<std::ptrdiff_t>(rng.Next() % 24));
    }

    const auto& [a, oa] = versions[rng.Next() % versions.size()];
    const auto& [b, ob] = versions[rng.Next() % versions.size()];
    OracleSet u, i, d;
    std::set_union(oa.begin(), oa.end(), ob.begin(), ob.end(), std::inserter(u, u.end()));
    std::set_intersection(oa.begin(), oa.end(), ob.begin(), ob.end(),
                          std::inserter(i, i.end()));
    std::set_difference(oa.begin(), oa.end(), ob.begin(), ob.end(), std::inserter(d, d.end()));
    ASSERT_EQ(SetItems(a.Union(b)), SetItems(u));
    ASSERT_EQ(SetItems(a.Intersect(b)), SetItems(i));
    ASSERT_EQ(SetItems(a.Difference(b)), SetItems(d));
    ASSERT_EQ(a.Union(b).size(), u.size());
    ASSERT_EQ(a.IsSubsetOf(b), std::includes(ob.begin(), ob.end(), oa.begin(), oa.end()))
        << "step " << step;
    ASSERT_EQ(a.IsDisjointFrom(b), i.empty()) << "step " << step;
    ASSERT_EQ(a == b, oa == ob) << "step " << step;
    int q = rng.Key();
    ASSERT_EQ(a.contains(q), oa.count(q) != 0);
    ASSERT_EQ(a.ForAll([&](int x) { return x != q; }), oa.count(q) == 0);
    ASSERT_EQ(a.Exists([&](int x) { return x == q; }), oa.count(q) != 0);
    ASSERT_EQ(a.size(), oa.size());
    ASSERT_EQ(a.empty(), oa.empty());
    ASSERT_EQ(SetItems(a), SetItems(oa));
  }
}

TEST(PersistentTreeTest, SameContentsInAnyOrderAreEqualAndIterateIdentically) {
  // History independence: the shape is a function of the key set, so maps
  // built through different insert/erase histories compare equal by the
  // shared-subtree walk and iterate in the same order.
  SplitMix rng(3);
  std::vector<int> keys;
  for (int k = 0; k < 3000; ++k) {
    keys.push_back(static_cast<int>(rng.Next() % 100000) - 50000);
  }
  IntMap reference;
  IntSet reference_set;
  for (int k : keys) {
    reference.set(k, k * 7);
    reference_set.add(k);
  }
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int> order = keys;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Next() % i]);
    }
    IntMap m;
    IntSet s;
    for (int k : order) {
      m.set(k + 1, 0);  // a detour: extra keys inserted and erased again
      m.set(k, k * 7);
      s.add(k);
      s.add(k ^ 1);
    }
    for (int k : order) {
      if (reference.contains(k + 1)) {
        m.set(k + 1, (k + 1) * 7);
      } else {
        m.erase(k + 1);
      }
      if (!reference_set.contains(k ^ 1)) {
        s.erase(k ^ 1);
      }
    }
    EXPECT_EQ(m, reference) << "trial " << trial;
    EXPECT_EQ(s, reference_set) << "trial " << trial;
    EXPECT_TRUE(IntMap::AgreeExcept(m, reference, [](int) { return false; }));
    EXPECT_EQ(MapItems(m), MapItems(reference));
    EXPECT_EQ(SetItems(s), SetItems(reference_set));
  }
}

TEST(PersistentTreeTest, MutatingACopyNeverChangesTheOriginal) {
  SplitMix rng(4);
  IntMap original;
  IntSet original_set;
  for (int i = 0; i < 500; ++i) {
    original.set(rng.Key(), i);
    original_set.add(rng.Key());
  }
  const std::vector<std::pair<int, int>> before = MapItems(original);
  const std::vector<int> before_set = SetItems(original_set);
  for (int round = 0; round < 50; ++round) {
    IntMap copy = original;
    IntSet copy_set = original_set;
    EXPECT_TRUE(copy.SharesRepWith(original));
    for (int i = 0; i < 20; ++i) {
      copy.set(rng.Key(), -round);
      copy.erase(rng.Key());
      copy_set.add(rng.Key());
      copy_set.erase(rng.Key());
    }
    IntMap rebuilt = copy.insert(1000, 1).remove(1000);
    EXPECT_EQ(rebuilt, copy);
  }
  EXPECT_EQ(MapItems(original), before);
  EXPECT_EQ(SetItems(original_set), before_set);
}

TEST(PersistentTreeTest, IteratorRecoversFromClippedStackOnDeepTrees) {
  // Keys whose priorities fall as the keys fall form a left spine, one
  // level per key: a longest decreasing run of keys in descending-priority
  // order. Iteration over such a tree is deeper than the iterator's fixed
  // ring and must re-find the dropped ancestors from the root.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    keys.push_back(k);
  }
  auto priority = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::sort(keys.begin(), keys.end(),
            [&](std::uint64_t a, std::uint64_t b) { return priority(a) > priority(b); });
  // Longest strictly decreasing subsequence (patience sorting on -key).
  std::vector<std::uint64_t> tails;
  std::vector<int> tail_at;
  std::vector<int> parent(keys.size(), -1);
  for (int i = 0; i < static_cast<int>(keys.size()); ++i) {
    auto pos = std::lower_bound(tails.begin(), tails.end(), keys[i],
                                [](std::uint64_t t, std::uint64_t k) { return t > k; });
    std::size_t at = static_cast<std::size_t>(pos - tails.begin());
    parent[static_cast<std::size_t>(i)] = at == 0 ? -1 : tail_at[at - 1];
    if (pos == tails.end()) {
      tails.push_back(keys[static_cast<std::size_t>(i)]);
      tail_at.push_back(i);
    } else {
      *pos = keys[static_cast<std::size_t>(i)];
      tail_at[at] = i;
    }
  }
  std::vector<std::uint64_t> spine;
  for (int i = tail_at.back(); i >= 0; i = parent[static_cast<std::size_t>(i)]) {
    spine.push_back(keys[static_cast<std::size_t>(i)]);
  }
  ASSERT_GT(spine.size(), 64u) << "need a spine deeper than the iterator ring";

  // The spine alone is a left chain, one level per key.
  SpecSet<std::uint64_t> s;
  std::set<std::uint64_t> oracle;
  for (std::uint64_t k : spine) {
    s.add(k);
    oracle.insert(k);
  }
  EXPECT_EQ(std::vector<std::uint64_t>(s.begin(), s.end()),
            (std::vector<std::uint64_t>(oracle.begin(), oracle.end())));
  // Ordinary keys around it, too.
  for (std::uint64_t k = 0; k < 20000; k += 97) {
    s.add(k);
    oracle.insert(k);
  }
  EXPECT_EQ(std::vector<std::uint64_t>(s.begin(), s.end()),
            (std::vector<std::uint64_t>(oracle.begin(), oracle.end())));
}

TEST(PersistentTreeTest, ArenaLiveReturnsToStartOnceEveryHandleIsGone) {
  auto arena = std::make_shared<SpecArena>();
  std::uint64_t start = arena->live();
  {
    IntMap built;
    IntSet built_set;
    {
      ArenaScope scope(arena);
      SplitMix rng(5);
      for (int i = 0; i < 300; ++i) {
        built.set(rng.Key(), i);
        built_set.add(rng.Key());
      }
      IntMap copy = built;
      copy.set(1000, 1);  // path copy inside the scope: arena nodes
      EXPECT_GT(arena->live(), start);
    }
    // Copies mutated outside the scope path-copy onto the heap, still
    // sharing arena nodes with the originals.
    IntMap heap_copy = built.insert(2000, 2).remove(built.begin()->first);
    IntSet heap_set = built_set.Union(IntSet{3000, 3001});
    built = IntMap{};
    built_set = IntSet{};
    EXPECT_GT(arena->live(), start) << "heap copies still reach arena nodes";
    EXPECT_TRUE(heap_copy.contains(2000));
    EXPECT_TRUE(heap_set.contains(3001));
  }
  EXPECT_EQ(arena->live(), start);
  EXPECT_TRUE(arena->Reset());
}

// ---------------------------------------------------------------------------
// Ascending streams: FromSorted and EqualsSorted against Put and ==
// ---------------------------------------------------------------------------

// An ascending stream over sorted items (the producer contract of
// persistent_tree.h): emit(k) for a set, emit(k, v) for a map.
auto SetStream(const std::vector<int>& keys) {
  return [&keys](auto emit) {
    for (int k : keys) {
      if (!emit(k)) {
        return false;
      }
    }
    return true;
  };
}

auto MapStream(const std::vector<std::pair<int, int>>& items) {
  return [&items](auto emit) {
    for (const auto& [k, v] : items) {
      if (!emit(k, v)) {
        return false;
      }
    }
    return true;
  };
}

// Random sorted key sets: empty, one key, and sizes up to a few thousand.
std::vector<std::vector<int>> RandomKeySets(SplitMix* rng) {
  std::vector<std::vector<int>> out = {{}, {0}, {-7}, {3, 4}};
  for (std::size_t size : {2u, 3u, 17u, 100u, 1000u, 4000u}) {
    std::set<int> keys;
    while (keys.size() < size) {
      keys.insert(static_cast<int>(rng->Next() % 20000) - 10000);
    }
    out.emplace_back(keys.begin(), keys.end());
  }
  return out;
}

TEST(PersistentTreeTest, FromSortedIsThePutTreeNodeForNode) {
  using SetTree = PersistentTree<int>;
  using MapTree = PersistentTree<int, int>;
  SplitMix rng(6);
  for (const std::vector<int>& keys : RandomKeySets(&rng)) {
    std::vector<std::pair<int, int>> items;
    for (int k : keys) {
      items.emplace_back(k, static_cast<int>(rng.Next() % 1000));
    }
    // The Put-built twins insert in a shuffled order.
    std::vector<std::size_t> order(keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Next() % i]);
    }
    SetTree put_set;
    MapTree put_map;
    for (std::size_t i : order) {
      put_set.Put(keys[i]);
      put_map.Put(items[i].first, items[i].second);
    }

    SetTree built_set = SetTree::FromSorted(SetStream(keys));
    MapTree built_map = MapTree::FromSorted(MapStream(items));
    EXPECT_EQ(built_set.size(), keys.size());
    EXPECT_EQ(built_map.size(), keys.size());
    EXPECT_TRUE(built_set == put_set) << keys.size() << " keys";
    EXPECT_TRUE(built_map == put_map) << keys.size() << " keys";
    EXPECT_EQ(std::vector<int>(built_set.begin(), built_set.end()), keys);
    EXPECT_EQ(MapItems(SpecMap<int, int>::FromSorted(MapStream(items))), items);
    EXPECT_EQ(PersistentTreeTestPeer::PreOrder(built_set),
              PersistentTreeTestPeer::PreOrder(put_set))
        << keys.size() << " keys";
    EXPECT_EQ(PersistentTreeTestPeer::PreOrder(built_map),
              PersistentTreeTestPeer::PreOrder(put_map))
        << keys.size() << " keys";
    // A built tree is an ordinary tree: later writes behave as on the twin.
    if (!keys.empty()) {
      built_set.Erase(keys[keys.size() / 2]);
      put_set.Erase(keys[keys.size() / 2]);
      built_map.Put(keys.front(), -1);
      put_map.Put(keys.front(), -1);
      EXPECT_EQ(PersistentTreeTestPeer::PreOrder(built_set),
                PersistentTreeTestPeer::PreOrder(put_set));
      EXPECT_TRUE(built_map == put_map);
    }
  }
}

TEST(PersistentTreeTest, EqualsSortedAgreesWithEquality) {
  SplitMix rng(7);
  auto check_set = [](const IntSet& a, const std::vector<int>& b) {
    IntSet b_set;
    for (int k : b) {
      b_set.add(k);
    }
    EXPECT_EQ(a.EqualsSorted(SetStream(b)), a == b_set)
        << a.size() << " vs " << b.size() << " keys";
  };
  auto check_map = [](const IntMap& a, const std::vector<std::pair<int, int>>& b) {
    IntMap b_map;
    for (const auto& [k, v] : b) {
      b_map.set(k, v);
    }
    EXPECT_EQ(a.EqualsSorted(MapStream(b)), a == b_map)
        << a.size() << " vs " << b.size() << " keys";
  };
  for (const std::vector<int>& keys : RandomKeySets(&rng)) {
    std::vector<std::pair<int, int>> items;
    for (int k : keys) {
      items.emplace_back(k, k * 3);
    }
    const IntSet set = IntSet::FromSorted(SetStream(keys));
    const IntMap map = IntMap::FromSorted(MapStream(items));
    check_set(set, keys);
    check_map(map, items);

    // A missing or an extra key at either end, and in the middle.
    std::vector<std::vector<int>> set_variants;
    set_variants.push_back(keys);
    set_variants.back().insert(set_variants.back().begin(), -20000);  // extra first
    set_variants.push_back(keys);
    set_variants.back().push_back(20000);  // extra last
    if (!keys.empty()) {
      set_variants.emplace_back(keys.begin() + 1, keys.end());  // missing first
      set_variants.emplace_back(keys.begin(), keys.end() - 1);  // missing last
      set_variants.push_back(keys);
      set_variants.back().erase(set_variants.back().begin() +
                                static_cast<std::ptrdiff_t>(keys.size() / 2));
    }
    for (const std::vector<int>& variant : set_variants) {
      check_set(set, variant);
      check_set(IntSet::FromSorted(SetStream(variant)), keys);
    }
    for (const std::vector<int>& variant : set_variants) {
      std::vector<std::pair<int, int>> variant_items;
      for (int k : variant) {
        variant_items.emplace_back(k, k * 3);
      }
      check_map(map, variant_items);
    }
    // Maps that differ in a value only: first, middle and last key.
    if (!items.empty()) {
      for (std::size_t at : {std::size_t{0}, items.size() / 2, items.size() - 1}) {
        std::vector<std::pair<int, int>> changed = items;
        changed[at].second += 1;
        check_map(map, changed);
        check_map(IntMap::FromSorted(MapStream(changed)), items);
      }
    }
  }
  // Random pairs over a small universe, where equal pairs are common.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<int> a;
    std::vector<int> b;
    for (int k = 0; k < 6; ++k) {
      if (rng.Next() % 2 == 0) {
        a.push_back(k);
      }
      if (rng.Next() % 2 == 0) {
        b.push_back(k);
      }
    }
    check_set(IntSet::FromSorted(SetStream(a)), b);
  }
}

TEST(PersistentTreeTest, EqualsSortedStopsTheStreamAtTheFirstDifference) {
  std::vector<int> keys;
  for (int k = 0; k < 1000; ++k) {
    keys.push_back(k);
  }
  const IntSet set = IntSet::FromSorted(SetStream(keys));
  keys[10] = 10000;  // out of order on purpose: differs from the set at the 11th key
  int emitted = 0;
  bool ran_to_end = true;
  EXPECT_FALSE(set.EqualsSorted([&](auto emit) {
    for (int k : keys) {
      ++emitted;
      if (!emit(k)) {
        ran_to_end = false;
        return false;
      }
    }
    return true;
  }));
  EXPECT_FALSE(ran_to_end);
  EXPECT_EQ(emitted, 11);
}

TEST(PersistentTreeTest, FromSortedRejectsKeysThatDoNotIncrease) {
  auto arena = std::make_shared<SpecArena>();
  ScopedThrowOnCheckFailure guard;
  ArenaScope scope(arena);
  const std::uint64_t start = arena->live();
  for (const std::vector<int>& keys :
       {std::vector<int>{1, 1}, std::vector<int>{5, 2}, std::vector<int>{1, 2, 3, 3, 4},
        std::vector<int>{-3, 0, 8, 7, 9}}) {
    EXPECT_THROW(IntSet::FromSorted(SetStream(keys)), CheckViolation);
    std::vector<std::pair<int, int>> items;
    for (int k : keys) {
      items.emplace_back(k, 0);
    }
    EXPECT_THROW(IntMap::FromSorted(MapStream(items)), CheckViolation);
    // The abandoned build released every node it had made.
    EXPECT_EQ(arena->live(), start);
  }
}

// ---------------------------------------------------------------------------
// SpecSeq
// ---------------------------------------------------------------------------

TEST(SpecSeqTest, PushIndexSubrange) {
  SpecSeq<int> s;
  s = s.push(1).push(2).push(3);
  EXPECT_EQ(s.len(), 3u);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s.last(), 3);
  EXPECT_EQ(s.subrange(0, 2), (SpecSeq<int>{1, 2}));
  EXPECT_EQ(s.drop_last(), (SpecSeq<int>{1, 2}));
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(9));
}

TEST(SpecSeqTest, PrefixAndDuplicates) {
  SpecSeq<int> a{1, 2};
  SpecSeq<int> b{1, 2, 3};
  EXPECT_TRUE(a.IsPrefixOf(b));
  EXPECT_FALSE(b.IsPrefixOf(a));
  EXPECT_TRUE(a.IsPrefixOf(a));
  EXPECT_FALSE((SpecSeq<int>{2, 1}).IsPrefixOf(b));
  EXPECT_TRUE(b.NoDuplicates());
  EXPECT_FALSE((SpecSeq<int>{1, 2, 1}).NoDuplicates());
}

TEST(SpecSeqTest, OutOfRangeIsCheckFailure) {
  ScopedThrowOnCheckFailure guard;
  SpecSeq<int> s{1};
  EXPECT_THROW(s.at(1), CheckViolation);
  EXPECT_THROW(s.subrange(0, 2), CheckViolation);
  EXPECT_THROW(SpecSeq<int>{}.last(), CheckViolation);
}

// ---------------------------------------------------------------------------
// PointsTo / PPtr — linearity discipline
// ---------------------------------------------------------------------------

TEST(PointsToTest, InitTakePut) {
  PointsTo<int> perm = PointsTo<int>::Init(0x1000, 42);
  EXPECT_TRUE(perm.is_init());
  EXPECT_EQ(perm.addr(), 0x1000u);
  EXPECT_EQ(perm.value(), 42);
  int v = perm.Take();
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(perm.is_init());
  perm.Put(7);
  EXPECT_EQ(perm.value(), 7);
}

TEST(PointsToTest, BorrowRequiresMatchingAddress) {
  ScopedThrowOnCheckFailure guard;
  PointsTo<int> perm = PointsTo<int>::Init(0x1000, 1);
  PPtr<int> right(0x1000);
  PPtr<int> wrong(0x2000);
  EXPECT_EQ(right.Borrow(perm), 1);
  EXPECT_THROW(wrong.Borrow(perm), CheckViolation);
}

TEST(PointsToTest, BorrowUninitializedIsViolation) {
  ScopedThrowOnCheckFailure guard;
  PointsTo<int> perm = PointsTo<int>::Uninit(0x1000);
  PPtr<int> p(0x1000);
  EXPECT_THROW(p.Borrow(perm), CheckViolation);
  EXPECT_THROW(perm.value(), CheckViolation);
}

TEST(PointsToTest, UseAfterMoveIsViolation) {
  ScopedThrowOnCheckFailure guard;
  PointsTo<int> perm = PointsTo<int>::Init(0x1000, 1);
  PointsTo<int> moved = std::move(perm);
  EXPECT_EQ(moved.value(), 1);
  EXPECT_THROW(perm.addr(), CheckViolation);  // NOLINT(bugprone-use-after-move)
}

TEST(PointsToTest, DoubleInitIsViolation) {
  ScopedThrowOnCheckFailure guard;
  PointsTo<int> perm = PointsTo<int>::Init(0x1000, 1);
  EXPECT_THROW(perm.Put(2), CheckViolation);
}

TEST(PointsToTest, ReplaceSwapsValue) {
  PointsTo<int> perm = PointsTo<int>::Init(0x1000, 1);
  EXPECT_EQ(perm.Replace(9), 1);
  EXPECT_EQ(perm.value(), 9);
}

TEST(PointsToTest, MutationThroughBorrowMut) {
  PointsTo<int> perm = PointsTo<int>::Init(0x3000, 5);
  PPtr<int> p(0x3000);
  p.BorrowMut(perm) = 11;
  EXPECT_EQ(p.Borrow(perm), 11);
}

TEST(PointsToTest, CloneForVerificationIsIndependent) {
  PointsTo<int> perm = PointsTo<int>::Init(0x1000, 1);
  PointsTo<int> clone = perm.CloneForVerification();
  clone.value_mut() = 2;
  EXPECT_EQ(perm.value(), 1);
  EXPECT_EQ(clone.value(), 2);
  EXPECT_EQ(clone.addr(), perm.addr());
}

// ---------------------------------------------------------------------------
// PermissionMap — flat storage
// ---------------------------------------------------------------------------

TEST(PermissionMapTest, InsertBorrowRemove) {
  PermissionMap<int> map;
  map.TrackedInsert(PointsTo<int>::Init(0x1000, 10));
  map.TrackedInsert(PointsTo<int>::Init(0x2000, 20));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.Get(0x1000), 10);
  map.GetMut(0x2000) = 21;
  EXPECT_EQ(map.Get(0x2000), 21);
  PointsTo<int> out = map.TrackedRemove(0x1000);
  EXPECT_EQ(out.value(), 10);
  EXPECT_FALSE(map.contains(0x1000));
}

TEST(PermissionMapTest, DuplicateInsertIsViolation) {
  ScopedThrowOnCheckFailure guard;
  PermissionMap<int> map;
  map.TrackedInsert(PointsTo<int>::Init(0x1000, 10));
  EXPECT_THROW(map.TrackedInsert(PointsTo<int>::Init(0x1000, 11)), CheckViolation);
}

TEST(PermissionMapTest, RemoveAbsentIsViolation) {
  ScopedThrowOnCheckFailure guard;
  PermissionMap<int> map;
  EXPECT_THROW(map.TrackedRemove(0x1000), CheckViolation);
  EXPECT_THROW(map.TrackedBorrow(0x1000), CheckViolation);
}

TEST(PermissionMapTest, DomAndForAll) {
  PermissionMap<int> map;
  map.TrackedInsert(PointsTo<int>::Init(0x1000, 1));
  map.TrackedInsert(PointsTo<int>::Init(0x2000, 2));
  EXPECT_EQ(map.Dom(), (SpecSet<Ptr>{0x1000, 0x2000}));
  EXPECT_TRUE(map.ForAll([](Ptr p, int v) { return p == v * 0x1000u; }));
  EXPECT_FALSE(map.ForAll([](Ptr, int v) { return v > 1; }));
}

TEST(PermissionMapTest, CloneForVerificationDeepCopies) {
  PermissionMap<int> map;
  map.TrackedInsert(PointsTo<int>::Init(0x1000, 1));
  PermissionMap<int> clone = map.CloneForVerification();
  clone.GetMut(0x1000) = 99;
  EXPECT_EQ(map.Get(0x1000), 1);
  EXPECT_EQ(clone.Get(0x1000), 99);
}

// ---------------------------------------------------------------------------
// StaticList
// ---------------------------------------------------------------------------

TEST(StaticListTest, PushPopOrder) {
  StaticList<int, 8> list;
  list.PushBack(1);
  list.PushBack(2);
  list.PushFront(0);
  EXPECT_EQ(list.len(), 3u);
  EXPECT_EQ(list.View(), (SpecSeq<int>{0, 1, 2}));
  EXPECT_EQ(list.PopFront(), 0);
  EXPECT_EQ(list.PopFront(), 1);
  EXPECT_EQ(list.PopFront(), 2);
  EXPECT_TRUE(list.empty());
}

TEST(StaticListTest, ConstantTimeRemovalBySlot) {
  StaticList<int, 8> list;
  list.PushBack(10);
  std::uint32_t mid = list.PushBack(20);
  list.PushBack(30);
  list.Remove(mid);
  EXPECT_EQ(list.View(), (SpecSeq<int>{10, 30}));
  EXPECT_TRUE(list.LinksWf());
}

TEST(StaticListTest, SlotReuseAfterRemoval) {
  StaticList<int, 2> list;
  std::uint32_t a = list.PushBack(1);
  list.PushBack(2);
  EXPECT_TRUE(list.full());
  list.Remove(a);
  list.PushBack(3);  // must reuse freed slot
  EXPECT_EQ(list.View(), (SpecSeq<int>{2, 3}));
  EXPECT_TRUE(list.LinksWf());
}

TEST(StaticListTest, CapacityExhaustionIsViolation) {
  ScopedThrowOnCheckFailure guard;
  StaticList<int, 2> list;
  list.PushBack(1);
  list.PushBack(2);
  EXPECT_THROW(list.PushBack(3), CheckViolation);
}

TEST(StaticListTest, FindAndRemoveValue) {
  StaticList<int, 4> list;
  list.PushBack(5);
  list.PushBack(6);
  EXPECT_TRUE(list.Contains(6));
  list.RemoveValue(6);
  EXPECT_FALSE(list.Contains(6));
  ScopedThrowOnCheckFailure guard;
  EXPECT_THROW(list.RemoveValue(6), CheckViolation);
}

TEST(StaticListTest, RemoveUnusedSlotIsViolation) {
  ScopedThrowOnCheckFailure guard;
  StaticList<int, 4> list;
  EXPECT_THROW(list.Remove(0), CheckViolation);
  EXPECT_THROW(list.At(3), CheckViolation);
  EXPECT_THROW(list.PopFront(), CheckViolation);
}

TEST(StaticListTest, IterationMatchesView) {
  StaticList<int, 8> list;
  for (int i = 0; i < 5; ++i) {
    list.PushBack(i);
  }
  int expect = 0;
  for (int v : list) {
    EXPECT_EQ(v, expect++);
  }
  EXPECT_EQ(expect, 5);
}

// Parameterized stress: random interleavings of push/remove stay well-formed.
class StaticListStressTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StaticListStressTest, RandomOpsPreserveLinksWf) {
  unsigned seed = GetParam();
  std::uint64_t state = seed * 2654435761u + 1;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  StaticList<int, 32> list;
  std::vector<std::pair<std::uint32_t, int>> live;  // (slot, value)
  std::vector<int> model;
  for (int step = 0; step < 500; ++step) {
    if (!list.full() && (live.empty() || next() % 2 == 0)) {
      int value = static_cast<int>(next() % 1000);
      std::uint32_t slot = list.PushBack(value);
      live.emplace_back(slot, value);
      model.push_back(value);
    } else {
      std::size_t pick = next() % live.size();
      list.Remove(live[pick].first);
      model.erase(std::find(model.begin(), model.end(), live[pick].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_TRUE(list.LinksWf()) << "step " << step;
    ASSERT_EQ(list.len(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticListStressTest, ::testing::Values(1u, 2u, 3u, 17u, 99u));

// ---------------------------------------------------------------------------
// Check infrastructure
// ---------------------------------------------------------------------------

TEST(CheckTest, ScopedHandlerRestoresPrevious) {
  {
    ScopedThrowOnCheckFailure outer;
    {
      ScopedThrowOnCheckFailure inner;
      EXPECT_THROW(ATMO_FAIL("inner"), CheckViolation);
    }
    EXPECT_THROW(ATMO_FAIL("outer still throwing"), CheckViolation);
  }
}

TEST(CheckTest, EventCarriesLocationAndMessage) {
  ScopedThrowOnCheckFailure guard;
  try {
    ATMO_CHECK(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const CheckViolation& v) {
    EXPECT_NE(std::string(v.event().file).find("vstd_test"), std::string::npos);
    EXPECT_EQ(v.event().message, "math is broken");
    EXPECT_NE(v.event().condition.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace atmo
