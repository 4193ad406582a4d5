#ifndef BDBMS_INDEX_SPGIST_QUAD_OPS_H_
#define BDBMS_INDEX_SPGIST_QUAD_OPS_H_

#include <cstring>

#include "index/spgist/kd_ops.h"  // SpPoint, SpatialQuery
#include "index/spgist/spgist.h"

namespace bdbms {

// SP-GiST operator class instantiating a disk-based PR quadtree (a
// point-quadtree variant of paper §7.1): every inner node splits its
// region at the midpoint into four quadrants, so the partitioning is
// purely space- (not data-) driven. Quadrant numbering:
//   0 = SW (x <= cx, y <= cy), 1 = SE, 2 = NW, 3 = NE.
struct QuadOps {
  using Key = SpPoint;
  using Query = SpatialQuery;

  struct Config {
    Rect bounds{0, 0, 1, 1};  // world box; inserts must fall inside
  };

  struct State {
    Rect box;

    double cx() const { return (box.x1 + box.x2) / 2; }
    double cy() const { return (box.y1 + box.y2) / 2; }
    Rect Quadrant(size_t q) const {
      double mx = cx(), my = cy();
      switch (q) {
        case 0: return {box.x1, box.y1, mx, my};
        case 1: return {mx, box.y1, box.x2, my};
        case 2: return {box.x1, my, mx, box.y2};
        default: return {mx, my, box.x2, box.y2};
      }
    }
  };

  struct Inner {
    uint64_t kids[4] = {kSpGistNullNode, kSpGistNullNode, kSpGistNullNode,
                        kSpGistNullNode};

    size_t NumChildren() const { return 4; }
    uint64_t child(size_t i) const { return kids[i]; }
    void set_child(size_t i, uint64_t v) { kids[i] = v; }
  };

  static State RootState(const Config& config) { return {config.bounds}; }

  static size_t QuadrantOf(const State& state, const Key& p) {
    return (p.x > state.cx() ? 1u : 0u) + (p.y > state.cy() ? 2u : 0u);
  }

  struct ChooseResult {
    size_t slot;
    bool modified;
  };

  static ChooseResult Choose(Inner*, Key* key, const State& state) {
    return {QuadrantOf(state, *key), false};
  }

  static State Descend(const Inner&, size_t slot, const State& state) {
    return {state.Quadrant(slot)};
  }

  static void PickSplit(const State& state,
                        std::vector<std::pair<Key, uint64_t>>* entries,
                        Inner*,
                        std::vector<std::vector<std::pair<Key, uint64_t>>>*
                            partitions) {
    partitions->assign(4, {});
    for (auto& [p, payload] : *entries) {
      (*partitions)[QuadrantOf(state, p)].emplace_back(p, payload);
    }
  }

  static void SearchChildren(const Inner&, const Query& query,
                             const State& state, std::vector<size_t>* out) {
    if (query.kind == SpatialQueryKind::kPointEq) {
      out->push_back(QuadrantOf(state, query.point));
      return;
    }
    for (size_t q = 0; q < 4; ++q) {
      if (state.Quadrant(q).Intersects(query.window)) out->push_back(q);
    }
  }

  static bool LeafConsistent(const Query& query, const State& state,
                             const Key& key) {
    return KdOps::LeafConsistent(query, KdOps::State{state.box}, key);
  }

  static bool KeyEquals(const Key& a, const Key& b) {
    return KdOps::KeyEquals(a, b);
  }

  static void EncodeKey(const Key& key, std::string* out) {
    KdOps::EncodeKey(key, out);
  }
  static Result<Key> DecodeKey(std::string_view data, size_t* off) {
    return KdOps::DecodeKey(data, off);
  }
  static void EncodeInner(const Inner& inner, std::string* out) {
    for (uint64_t kid : inner.kids) {
      out->append(reinterpret_cast<const char*>(&kid), 8);
    }
  }
  static Result<Inner> DecodeInner(std::string_view data, size_t* off) {
    if (*off + 32 > data.size()) return Status::Corruption("quad inner");
    Inner inner;
    for (int i = 0; i < 4; ++i) {
      std::memcpy(&inner.kids[i], data.data() + *off, 8);
      *off += 8;
    }
    return inner;
  }

  // Distance hooks for SearchKnn (kd_ops.h).
  static double StateBound2(const State& state, double x, double y) {
    return state.box.MinDist2(x, y);
  }
  static double KeyDist2(const Key& key, double x, double y) {
    return key.Dist2(x, y);
  }
};

using SpGistQuadTree = SpGistIndex<QuadOps>;

}  // namespace bdbms

#endif  // BDBMS_INDEX_SPGIST_QUAD_OPS_H_
