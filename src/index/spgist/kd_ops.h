#ifndef BDBMS_INDEX_SPGIST_KD_OPS_H_
#define BDBMS_INDEX_SPGIST_KD_OPS_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "index/rtree/rtree.h"  // Rect
#include "index/spgist/spgist.h"

namespace bdbms {

// 2-D point with the spatial query vocabulary shared by the kd-tree and
// quadtree operator classes.
struct SpPoint {
  double x = 0, y = 0;

  double Dist2(double px, double py) const {
    double dx = x - px, dy = y - py;
    return dx * dx + dy * dy;
  }
};

enum class SpatialQueryKind { kPointEq, kWindow };
struct SpatialQuery {
  SpatialQueryKind kind = SpatialQueryKind::kPointEq;
  SpPoint point;
  Rect window;

  static SpatialQuery Eq(double x, double y) {
    SpatialQuery q;
    q.kind = SpatialQueryKind::kPointEq;
    q.point = {x, y};
    return q;
  }
  static SpatialQuery Window(const Rect& r) {
    SpatialQuery q;
    q.kind = SpatialQueryKind::kWindow;
    q.window = r;
    return q;
  }
};

// SP-GiST operator class instantiating a disk-based kd-tree (Bentley).
// Inner nodes split on one dimension at the median; points with
// coordinate <= split go left. Supports point lookup, window queries and
// k-NN (paper §7.1 compares these against the R-tree).
struct KdOps {
  using Key = SpPoint;
  using Query = SpatialQuery;

  struct Config {
    Rect bounds{0, 0, 1, 1};  // world box for the root traversal state
  };

  struct State {
    Rect box;
  };

  struct Inner {
    uint8_t dim = 0;  // 0 = x, 1 = y
    double split = 0;
    uint64_t kids[2] = {kSpGistNullNode, kSpGistNullNode};

    size_t NumChildren() const { return 2; }
    uint64_t child(size_t i) const { return kids[i]; }
    void set_child(size_t i, uint64_t v) { kids[i] = v; }
  };

  static State RootState(const Config& config) { return {config.bounds}; }

  struct ChooseResult {
    size_t slot;
    bool modified;
  };

  static ChooseResult Choose(Inner* inner, Key* key, const State&) {
    double coord = inner->dim == 0 ? key->x : key->y;
    return {coord <= inner->split ? size_t{0} : size_t{1}, false};
  }

  static State Descend(const Inner& inner, size_t slot, const State& state) {
    State next = state;
    if (inner.dim == 0) {
      (slot == 0 ? next.box.x2 : next.box.x1) = inner.split;
    } else {
      (slot == 0 ? next.box.y2 : next.box.y1) = inner.split;
    }
    return next;
  }

  static void PickSplit(const State&,
                        std::vector<std::pair<Key, uint64_t>>* entries,
                        Inner* inner,
                        std::vector<std::vector<std::pair<Key, uint64_t>>>*
                            partitions) {
    // Split dimension: the one with the larger spread; split at median.
    double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
    for (const auto& [p, payload] : *entries) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    inner->dim = (max_x - min_x) >= (max_y - min_y) ? 0 : 1;
    std::vector<double> coords;
    coords.reserve(entries->size());
    for (const auto& [p, payload] : *entries) {
      coords.push_back(inner->dim == 0 ? p.x : p.y);
    }
    std::nth_element(coords.begin(), coords.begin() + coords.size() / 2,
                     coords.end());
    inner->split = coords[coords.size() / 2];
    // Median == max (duplicates): nudge to the midpoint so the right side
    // is non-empty when possible.
    double lo = inner->dim == 0 ? min_x : min_y;
    double hi = inner->dim == 0 ? max_x : max_y;
    if (inner->split >= hi && lo < hi) inner->split = (lo + hi) / 2;

    partitions->assign(2, {});
    for (auto& [p, payload] : *entries) {
      double coord = inner->dim == 0 ? p.x : p.y;
      (*partitions)[coord <= inner->split ? 0 : 1].emplace_back(p, payload);
    }
  }

  static void SearchChildren(const Inner& inner, const Query& query,
                             const State&, std::vector<size_t>* out) {
    if (query.kind == SpatialQueryKind::kPointEq) {
      double coord = inner.dim == 0 ? query.point.x : query.point.y;
      out->push_back(coord <= inner.split ? 0 : 1);
      return;
    }
    double lo = inner.dim == 0 ? query.window.x1 : query.window.y1;
    double hi = inner.dim == 0 ? query.window.x2 : query.window.y2;
    if (lo <= inner.split) out->push_back(0);
    if (hi > inner.split) out->push_back(1);
  }

  static bool LeafConsistent(const Query& query, const State&,
                             const Key& key) {
    if (query.kind == SpatialQueryKind::kPointEq) {
      return key.x == query.point.x && key.y == query.point.y;
    }
    return key.x >= query.window.x1 && key.x <= query.window.x2 &&
           key.y >= query.window.y1 && key.y <= query.window.y2;
  }

  static bool KeyEquals(const Key& a, const Key& b) {
    return a.x == b.x && a.y == b.y;
  }

  static void EncodeKey(const Key& key, std::string* out) {
    out->append(reinterpret_cast<const char*>(&key.x), 8);
    out->append(reinterpret_cast<const char*>(&key.y), 8);
  }
  static Result<Key> DecodeKey(std::string_view data, size_t* off) {
    if (*off + 16 > data.size()) return Status::Corruption("kd key");
    Key key;
    std::memcpy(&key.x, data.data() + *off, 8);
    std::memcpy(&key.y, data.data() + *off + 8, 8);
    *off += 16;
    return key;
  }
  static void EncodeInner(const Inner& inner, std::string* out) {
    out->push_back(static_cast<char>(inner.dim));
    out->append(reinterpret_cast<const char*>(&inner.split), 8);
    out->append(reinterpret_cast<const char*>(&inner.kids[0]), 8);
    out->append(reinterpret_cast<const char*>(&inner.kids[1]), 8);
  }
  static Result<Inner> DecodeInner(std::string_view data, size_t* off) {
    if (*off + 25 > data.size()) return Status::Corruption("kd inner");
    Inner inner;
    inner.dim = static_cast<uint8_t>(data[*off]);
    std::memcpy(&inner.split, data.data() + *off + 1, 8);
    std::memcpy(&inner.kids[0], data.data() + *off + 9, 8);
    std::memcpy(&inner.kids[1], data.data() + *off + 17, 8);
    *off += 25;
    return inner;
  }

  // Distance hooks for SearchKnn: a lower bound for every point under a
  // subtree, and a point's exact squared distance.
  static double StateBound2(const State& state, double x, double y) {
    return state.box.MinDist2(x, y);
  }
  static double KeyDist2(const Key& key, double x, double y) {
    return key.Dist2(x, y);
  }
};

using SpGistKdTree = SpGistIndex<KdOps>;

// k-nearest-neighbour search over a kd-tree or quadtree (any operator
// class with StateBound2/KeyDist2): SearchOrdered expands subtrees by the
// squared distance of their box to (x, y), so points surface in
// nondecreasing distance and the walk stops after k. Returns
// (payload, distance) pairs, nearest first.
template <typename Op>
Result<std::vector<std::pair<uint64_t, double>>> SearchKnn(
    const SpGistIndex<Op>& index, double x, double y, size_t k) {
  struct Walker {
    using WState = typename Op::State;
    const typename Op::Config& config;
    double x, y;
    size_t k;
    std::vector<std::pair<uint64_t, double>> out;

    WState Root() { return Op::RootState(config); }
    std::optional<WState> Descend(const typename Op::Inner& inner,
                                  size_t slot, const WState& state) {
      return Op::Descend(inner, slot, state);
    }
    double Bound(const WState& state) { return Op::StateBound2(state, x, y); }
    std::optional<double> LeafDistance(const WState&, const SpPoint& key) {
      return Op::KeyDist2(key, x, y);
    }
    bool Emit(const WState&, const SpPoint&, uint64_t payload, double dist2) {
      out.emplace_back(payload, std::sqrt(dist2));
      return out.size() < k;
    }
  };
  Walker walker{index.config(), x, y, k, {}};
  if (k > 0) BDBMS_RETURN_IF_ERROR(index.SearchOrdered(walker));
  return std::move(walker.out);
}

}  // namespace bdbms

#endif  // BDBMS_INDEX_SPGIST_KD_OPS_H_
