#ifndef BDBMS_INDEX_BTREE_BPLUS_TREE_H_
#define BDBMS_INDEX_BTREE_BPLUS_TREE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace bdbms {

// Disk-based B+-tree with variable-length byte-string keys and uint64
// payloads. The comparison baseline for the SP-GiST trie experiments
// (paper §7.1) and the node layer of the String B-tree / SBC-tree (§7.2).
//
// Duplicate keys are allowed. Deletion removes leaf entries without
// rebalancing (standard for an append-mostly research substrate).
// Keys are limited to 1 KiB so any three keys fit a page.
class BPlusTree {
 public:
  static Result<std::unique_ptr<BPlusTree>> CreateInMemory(
      size_t pool_pages = 256);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  Status Insert(std::string_view key, uint64_t payload);

  // Visits entries with lo <= key < hi in key order; fn returning false
  // stops the scan.
  Status ScanRange(
      std::string_view lo, std::string_view hi,
      const std::function<bool(std::string_view, uint64_t)>& fn) const;

  // Visits entries whose key starts with `prefix`.
  Status ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, uint64_t)>& fn) const;

  // Removes one entry matching (key, payload); NotFound if absent.
  Status Delete(std::string_view key, uint64_t payload);

  uint64_t size() const { return size_; }
  uint64_t SizeBytes() const { return pager_->SizeBytes(); }
  const IoStats& io_stats() const { return pager_->stats(); }
  IoStats& io_stats() { return pager_->stats(); }

 private:
  explicit BPlusTree(std::unique_ptr<Pager> pager, size_t pool_pages);

  struct LeafEntry {
    std::string key;
    uint64_t payload;
  };
  struct LeafNode {
    std::vector<LeafEntry> entries;
    PageId next = kInvalidPageId;
  };
  struct InnerNode {
    // children.size() == keys.size() + 1; subtree i holds keys
    // < keys[i] (and >= keys[i-1]).
    std::vector<std::string> keys;
    std::vector<PageId> children;
  };

  Result<LeafNode> ReadLeaf(PageId id) const;
  Result<InnerNode> ReadInner(PageId id) const;
  Result<bool> IsLeaf(PageId id) const;
  Status WriteLeaf(PageId id, const LeafNode& node);
  Status WriteInner(PageId id, const InnerNode& node);

  // Returns (separator, new right sibling) when the child split.
  struct SplitResult {
    std::string separator;
    PageId right;
  };
  Result<std::optional<SplitResult>> InsertRec(PageId node,
                                               std::string_view key,
                                               uint64_t payload);

  // Leftmost leaf whose key range may contain `key`.
  Result<PageId> DescendToLeaf(std::string_view key) const;

  static uint64_t LeafSerializedSize(const LeafNode& n);
  static uint64_t InnerSerializedSize(const InnerNode& n);

  std::unique_ptr<Pager> pager_;
  mutable std::unique_ptr<BufferPool> pool_;
  PageId root_;
  uint64_t size_ = 0;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_BTREE_BPLUS_TREE_H_
