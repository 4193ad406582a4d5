#ifndef BDBMS_INDEX_SPGIST_SPGIST_H_
#define BDBMS_INDEX_SPGIST_SPGIST_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "storage/heap_file.h"

namespace bdbms {

// SP-GiST: an extensible indexing framework for the class of space-
// partitioning trees (paper §7.1, citing Aref & Ilyas). The framework owns
// node storage (paged, I/O counted), descent, splits and traversal; an
// operator class instantiates a concrete index (disk-based trie, kd-tree,
// PR quadtree, ...) by supplying the partitioning logic — mirroring the
// PostgreSQL SP-GiST extension API the authors integrated:
//
//   struct Op {
//     using Key;      // leaf datum
//     using Query;    // search descriptor
//     struct Config;  // per-index parameters (e.g. world bounds)
//     struct State;   // traversal state reconstructed along the path
//     struct Inner {  // inner-node content (labels/planes/quadrants)
//       size_t NumChildren() const;
//       uint64_t child(size_t) const;
//       void set_child(size_t, uint64_t);
//     };
//     static State RootState(const Config&);
//     struct ChooseResult { size_t slot; bool modified; };
//     static ChooseResult Choose(Inner*, Key*, const State&);   // descent
//     static State Descend(const Inner&, size_t slot, const State&);
//     static void PickSplit(const State&,
//                           std::vector<std::pair<Key, uint64_t>>* entries,
//                           Inner* inner,
//                           std::vector<std::vector<std::pair<Key, uint64_t>>>*
//                               partitions);
//     static void SearchChildren(const Inner&, const Query&, const State&,
//                                std::vector<size_t>* out);
//     static bool LeafConsistent(const Query&, const State&, const Key&);
//     static bool KeyEquals(const Key&, const Key&);
//     static void EncodeKey(const Key&, std::string*);
//     static Result<Key> DecodeKey(std::string_view, size_t*);
//     static void EncodeInner(const Inner&, std::string*);
//     static Result<Inner> DecodeInner(std::string_view, size_t*);
//   };
//
// An operator class may additionally provide
//
//     static std::optional<State> DescendSearch(const Inner&, size_t slot,
//                                               const State&, const Query&);
//
// which Search/Remove then use instead of Descend, letting the class
// thread query-derived state (e.g. an NFA state set) across each edge
// exactly once instead of recomputing it from the path at every node;
// nullopt prunes the child before its node is read.
inline constexpr uint64_t kSpGistNullNode = UINT64_MAX;

template <typename Op>
class SpGistIndex {
 public:
  using Key = typename Op::Key;
  using Query = typename Op::Query;
  using State = typename Op::State;
  using Config = typename Op::Config;
  using LeafEntry = std::pair<Key, uint64_t>;

  static Result<std::unique_ptr<SpGistIndex>> Create(Config config,
                                                     size_t pool_pages = 256) {
    BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> heap,
                           HeapFile::CreateInMemory(pool_pages));
    auto index = std::unique_ptr<SpGistIndex>(
        new SpGistIndex(std::move(config), std::move(heap)));
    Node root;
    root.leaf = true;
    BDBMS_RETURN_IF_ERROR(index->NewNode(root).status());
    return index;
  }

  SpGistIndex(const SpGistIndex&) = delete;
  SpGistIndex& operator=(const SpGistIndex&) = delete;

  Status Insert(Key key, uint64_t payload) {
    uint64_t node_id = 0;
    State state = Op::RootState(config_);
    for (;;) {
      BDBMS_ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
      if (node.leaf) {
        node.entries.emplace_back(key, payload);
        if (node.entries.size() <= kLeafCapacity || AllKeysEqual(node)) {
          BDBMS_RETURN_IF_ERROR(WriteNode(node_id, node));
          ++size_;
          return Status::Ok();
        }
        // Overflow: PickSplit turns this leaf into an inner node with
        // fresh child leaves.
        Node inner;
        inner.leaf = false;
        std::vector<std::vector<LeafEntry>> partitions;
        Op::PickSplit(state, &node.entries, &inner.inner, &partitions);
        if (partitions.size() != inner.inner.NumChildren()) {
          return Status::Internal("PickSplit partition/child mismatch");
        }
        // No-progress guard (e.g. every key in the same quadrant of a
        // degenerate region): keep the oversized leaf.
        for (const auto& part : partitions) {
          if (part.size() == node.entries.size() && partitions.size() > 0 &&
              node.entries.size() > kLeafCapacity * 4) {
            BDBMS_RETURN_IF_ERROR(WriteNode(node_id, node));
            ++size_;
            return Status::Ok();
          }
        }
        for (size_t i = 0; i < partitions.size(); ++i) {
          if (partitions[i].empty()) {
            inner.inner.set_child(i, kSpGistNullNode);
            continue;
          }
          Node child;
          child.leaf = true;
          child.entries = std::move(partitions[i]);
          BDBMS_ASSIGN_OR_RETURN(uint64_t child_id, NewNode(child));
          inner.inner.set_child(i, child_id);
        }
        BDBMS_RETURN_IF_ERROR(WriteNode(node_id, inner));
        ++size_;
        return Status::Ok();
      }

      typename Op::ChooseResult choice = Op::Choose(&node.inner, &key, state);
      State child_state = Op::Descend(node.inner, choice.slot, state);
      uint64_t child = node.inner.child(choice.slot);
      if (child == kSpGistNullNode) {
        Node leaf;
        leaf.leaf = true;
        leaf.entries.emplace_back(std::move(key), payload);
        BDBMS_ASSIGN_OR_RETURN(uint64_t child_id, NewNode(leaf));
        node.inner.set_child(choice.slot, child_id);
        BDBMS_RETURN_IF_ERROR(WriteNode(node_id, node));
        ++size_;
        return Status::Ok();
      }
      if (choice.modified) {
        BDBMS_RETURN_IF_ERROR(WriteNode(node_id, node));
      }
      node_id = child;
      state = std::move(child_state);
    }
  }

  // Visits every (key, payload) consistent with `query`; fn returning
  // false stops the search.
  Status Search(const Query& query,
                const std::function<bool(const Key&, uint64_t)>& fn) const {
    std::vector<std::pair<uint64_t, State>> stack;
    stack.emplace_back(0, Op::RootState(config_));
    while (!stack.empty()) {
      auto [node_id, state] = std::move(stack.back());
      stack.pop_back();
      BDBMS_ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
      if (node.leaf) {
        for (const LeafEntry& e : node.entries) {
          if (Op::LeafConsistent(query, state, e.first)) {
            if (!fn(e.first, e.second)) return Status::Ok();
          }
        }
        continue;
      }
      std::vector<size_t> children;
      Op::SearchChildren(node.inner, query, state, &children);
      for (size_t slot : children) {
        uint64_t child = node.inner.child(slot);
        if (child == kSpGistNullNode) continue;
        std::optional<State> next =
            DescendForSearch(node.inner, slot, state, query);
        if (next) stack.emplace_back(child, std::move(*next));
      }
    }
    return Status::Ok();
  }

  // Removes one entry whose key is consistent with `query` (callers pass
  // an exact-match query) and whose payload equals `payload`; returns
  // whether an entry was removed. This is what lets table-level indexes
  // built on SP-GiST stay maintained under UPDATE/DELETE (and approval
  // rollbacks) instead of being bulk-rebuild-only.
  Result<bool> Remove(const Query& query, uint64_t payload) {
    std::vector<std::pair<uint64_t, State>> stack;
    stack.emplace_back(0, Op::RootState(config_));
    while (!stack.empty()) {
      auto [node_id, state] = std::move(stack.back());
      stack.pop_back();
      BDBMS_ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
      if (node.leaf) {
        for (auto it = node.entries.begin(); it != node.entries.end(); ++it) {
          if (it->second == payload &&
              Op::LeafConsistent(query, state, it->first)) {
            node.entries.erase(it);
            BDBMS_RETURN_IF_ERROR(WriteNode(node_id, node));
            --size_;
            return true;
          }
        }
        continue;
      }
      std::vector<size_t> children;
      Op::SearchChildren(node.inner, query, state, &children);
      for (size_t slot : children) {
        uint64_t child = node.inner.child(slot);
        if (child == kSpGistNullNode) continue;
        std::optional<State> next =
            DescendForSearch(node.inner, slot, state, query);
        if (next) stack.emplace_back(child, std::move(*next));
      }
    }
    return false;
  }

  // Guided depth-first traversal for searches whose per-node state is
  // richer than what Op::State + Query can express (e.g. a dynamic-
  // programming row shared down trie edges). The walker owns descent:
  //
  //   struct Walker {
  //     using WState;                       // per-subtree traversal state
  //     WState Root();
  //     // nullopt prunes the child subtree.
  //     std::optional<WState> Descend(const typename Op::Inner&, size_t slot,
  //                                   const WState&);
  //     bool Leaf(const WState&, const Key&, uint64_t payload);  // false stops
  //   };
  template <typename Walker>
  Status SearchGuided(Walker& walker) const {
    using WState = typename Walker::WState;
    std::vector<std::pair<uint64_t, WState>> stack;
    stack.emplace_back(0, walker.Root());
    while (!stack.empty()) {
      auto [node_id, state] = std::move(stack.back());
      stack.pop_back();
      BDBMS_ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
      if (node.leaf) {
        for (const LeafEntry& e : node.entries) {
          if (!walker.Leaf(state, e.first, e.second)) return Status::Ok();
        }
        continue;
      }
      for (size_t slot = 0; slot < node.inner.NumChildren(); ++slot) {
        uint64_t child = node.inner.child(slot);
        if (child == kSpGistNullNode) continue;
        std::optional<WState> next = walker.Descend(node.inner, slot, state);
        if (next) stack.emplace_back(child, std::move(*next));
      }
    }
    return Status::Ok();
  }

  // Best-first ordered traversal in the style of PostgreSQL's spgscan.c
  // distance-ranked scans: subtrees are expanded in order of a walker-
  // computed lower bound, leaf entries surface in exact-distance order.
  // The walker contract extends SearchGuided's with:
  //
  //   double Bound(const WState&);                      // subtree lower bound
  //   // exact distance, or nullopt if the entry is not a result
  //   std::optional<double> LeafDistance(const WState&, const Key&);
  //   // entries arrive in nondecreasing distance; false stops the scan
  //   bool Emit(const WState&, const Key&, uint64_t payload, double dist);
  template <typename Walker>
  Status SearchOrdered(Walker& walker) const {
    using WState = typename Walker::WState;
    struct Item {
      double bound;
      bool is_node;
      uint64_t node;
      WState state;
      Key key;  // leaf suffix (entry items only)
      uint64_t payload;
    };
    auto later = [](const Item& a, const Item& b) { return a.bound > b.bound; };
    std::vector<Item> heap;
    {
      WState root = walker.Root();
      double bound = walker.Bound(root);
      heap.push_back({bound, true, 0, std::move(root), Key(), 0});
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Item item = std::move(heap.back());
      heap.pop_back();
      if (!item.is_node) {
        if (!walker.Emit(item.state, item.key, item.payload, item.bound)) {
          return Status::Ok();
        }
        continue;
      }
      BDBMS_ASSIGN_OR_RETURN(Node node, ReadNode(item.node));
      if (node.leaf) {
        for (const LeafEntry& e : node.entries) {
          std::optional<double> dist = walker.LeafDistance(item.state, e.first);
          if (!dist) continue;
          heap.push_back({*dist, false, 0, item.state, e.first, e.second});
          std::push_heap(heap.begin(), heap.end(), later);
        }
        continue;
      }
      for (size_t slot = 0; slot < node.inner.NumChildren(); ++slot) {
        uint64_t child = node.inner.child(slot);
        if (child == kSpGistNullNode) continue;
        std::optional<WState> next =
            walker.Descend(node.inner, slot, item.state);
        if (!next) continue;
        double bound = walker.Bound(*next);
        heap.push_back({bound, true, child, std::move(*next), Key(), 0});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    return Status::Ok();
  }

  const Config& config() const { return config_; }
  uint64_t size() const { return size_; }
  uint64_t node_count() const { return nodes_.size(); }
  uint64_t SizeBytes() const { return heap_->SizeBytes(); }
  const IoStats& io_stats() const { return heap_->io_stats(); }
  IoStats& io_stats() { return heap_->io_stats(); }

 private:
  static constexpr size_t kLeafCapacity = 32;

  struct Node {
    bool leaf = true;
    std::vector<LeafEntry> entries;  // leaf content
    typename Op::Inner inner;        // inner content
  };

  SpGistIndex(Config config, std::unique_ptr<HeapFile> heap)
      : config_(std::move(config)), heap_(std::move(heap)) {}

  // Search/Remove descend through the query-aware hook when the operator
  // class provides one, so per-edge query state rides along the path.
  static std::optional<State> DescendForSearch(const typename Op::Inner& inner,
                                               size_t slot, const State& state,
                                               const Query& query) {
    if constexpr (requires { Op::DescendSearch(inner, slot, state, query); }) {
      return Op::DescendSearch(inner, slot, state, query);
    } else {
      return Op::Descend(inner, slot, state);
    }
  }

  static bool AllKeysEqual(const Node& node) {
    for (size_t i = 1; i < node.entries.size(); ++i) {
      if (!Op::KeyEquals(node.entries[i].first, node.entries[0].first)) {
        return false;
      }
    }
    return true;
  }

  static std::string EncodeNode(const Node& node) {
    std::string out;
    out.push_back(node.leaf ? 0 : 1);
    if (node.leaf) {
      uint32_t count = static_cast<uint32_t>(node.entries.size());
      out.append(reinterpret_cast<const char*>(&count), 4);
      for (const LeafEntry& e : node.entries) {
        Op::EncodeKey(e.first, &out);
        out.append(reinterpret_cast<const char*>(&e.second), 8);
      }
    } else {
      Op::EncodeInner(node.inner, &out);
    }
    return out;
  }

  static Result<Node> DecodeNode(std::string_view data) {
    if (data.empty()) return Status::Corruption("empty sp-gist node");
    Node node;
    node.leaf = data[0] == 0;
    size_t off = 1;
    if (node.leaf) {
      if (off + 4 > data.size()) return Status::Corruption("truncated leaf");
      uint32_t count;
      std::memcpy(&count, data.data() + off, 4);
      off += 4;
      for (uint32_t i = 0; i < count; ++i) {
        BDBMS_ASSIGN_OR_RETURN(Key key, Op::DecodeKey(data, &off));
        if (off + 8 > data.size()) return Status::Corruption("truncated leaf");
        uint64_t payload;
        std::memcpy(&payload, data.data() + off, 8);
        off += 8;
        node.entries.emplace_back(std::move(key), payload);
      }
    } else {
      BDBMS_ASSIGN_OR_RETURN(node.inner, Op::DecodeInner(data, &off));
    }
    return node;
  }

  Result<uint64_t> NewNode(const Node& node) {
    BDBMS_ASSIGN_OR_RETURN(RecordId rid, heap_->Insert(EncodeNode(node)));
    nodes_.push_back(rid);
    return nodes_.size() - 1;
  }

  Result<Node> ReadNode(uint64_t node_id) const {
    if (node_id >= nodes_.size()) {
      return Status::Corruption("bad sp-gist node id");
    }
    BDBMS_ASSIGN_OR_RETURN(std::string payload, heap_->Read(nodes_[node_id]));
    return DecodeNode(payload);
  }

  Status WriteNode(uint64_t node_id, const Node& node) {
    BDBMS_RETURN_IF_ERROR(heap_->Delete(nodes_[node_id]));
    BDBMS_ASSIGN_OR_RETURN(RecordId rid, heap_->Insert(EncodeNode(node)));
    nodes_[node_id] = rid;
    return Status::Ok();
  }

  Config config_;
  std::unique_ptr<HeapFile> heap_;
  std::vector<RecordId> nodes_;
  uint64_t size_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_SPGIST_SPGIST_H_
