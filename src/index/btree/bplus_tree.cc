#include "index/btree/bplus_tree.h"

#include <algorithm>
#include <cstring>

namespace bdbms {

// Page layout (both node kinds re-serialize the whole node on write):
//   [0]  uint8  node type (20 = leaf, 21 = inner)
//   leaf:  [4] u32 next leaf, [8] u32 count,
//          entries: u16 klen, key bytes, u64 payload
//   inner: [4] u32 count (of keys), [8] u32 child0,
//          entries: u16 klen, key bytes, u32 child
namespace {

constexpr uint8_t kLeafType = 20;
constexpr uint8_t kInnerType = 21;
constexpr uint32_t kNodeBudget = kPageSize - 64;
constexpr size_t kMaxKeyLen = 1024;

}  // namespace

BPlusTree::BPlusTree(std::unique_ptr<Pager> pager, size_t pool_pages)
    : pager_(std::move(pager)),
      pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)) {}

Result<std::unique_ptr<BPlusTree>> BPlusTree::CreateInMemory(
    size_t pool_pages) {
  auto tree = std::unique_ptr<BPlusTree>(
      new BPlusTree(Pager::OpenInMemory(), pool_pages));
  BDBMS_ASSIGN_OR_RETURN(PageHandle root, tree->pool_->New());
  tree->root_ = root.id();
  root.page()->WriteAt<uint8_t>(0, kLeafType);
  root.page()->WriteAt<uint32_t>(4, kInvalidPageId);
  root.page()->WriteAt<uint32_t>(8, 0);
  root.MarkDirty();
  return tree;
}

Result<bool> BPlusTree::IsLeaf(PageId id) const {
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  uint8_t type = h.page()->ReadAt<uint8_t>(0);
  if (type != kLeafType && type != kInnerType) {
    return Status::Corruption("not a b+-tree node");
  }
  return type == kLeafType;
}

Result<BPlusTree::LeafNode> BPlusTree::ReadLeaf(PageId id) const {
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  const Page& p = *h.page();
  if (p.ReadAt<uint8_t>(0) != kLeafType) {
    return Status::Corruption("expected leaf node");
  }
  LeafNode node;
  node.next = p.ReadAt<uint32_t>(4);
  uint32_t count = p.ReadAt<uint32_t>(8);
  uint32_t off = 12;
  node.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t klen = p.ReadAt<uint16_t>(off);
    off += 2;
    std::string key(reinterpret_cast<const char*>(p.bytes() + off), klen);
    off += klen;
    uint64_t payload = p.ReadAt<uint64_t>(off);
    off += 8;
    node.entries.push_back({std::move(key), payload});
  }
  return node;
}

Result<BPlusTree::InnerNode> BPlusTree::ReadInner(PageId id) const {
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  const Page& p = *h.page();
  if (p.ReadAt<uint8_t>(0) != kInnerType) {
    return Status::Corruption("expected inner node");
  }
  InnerNode node;
  uint32_t count = p.ReadAt<uint32_t>(4);
  node.children.push_back(p.ReadAt<uint32_t>(8));
  uint32_t off = 12;
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t klen = p.ReadAt<uint16_t>(off);
    off += 2;
    node.keys.emplace_back(reinterpret_cast<const char*>(p.bytes() + off),
                           klen);
    off += klen;
    node.children.push_back(p.ReadAt<uint32_t>(off));
    off += 4;
  }
  return node;
}

Status BPlusTree::WriteLeaf(PageId id, const LeafNode& node) {
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  Page* p = h.page();
  p->Zero();
  p->WriteAt<uint8_t>(0, kLeafType);
  p->WriteAt<uint32_t>(4, node.next);
  p->WriteAt<uint32_t>(8, static_cast<uint32_t>(node.entries.size()));
  uint32_t off = 12;
  for (const LeafEntry& e : node.entries) {
    p->WriteAt<uint16_t>(off, static_cast<uint16_t>(e.key.size()));
    off += 2;
    std::memcpy(p->bytes() + off, e.key.data(), e.key.size());
    off += static_cast<uint32_t>(e.key.size());
    p->WriteAt<uint64_t>(off, e.payload);
    off += 8;
  }
  h.MarkDirty();
  return Status::Ok();
}

Status BPlusTree::WriteInner(PageId id, const InnerNode& node) {
  BDBMS_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  Page* p = h.page();
  p->Zero();
  p->WriteAt<uint8_t>(0, kInnerType);
  p->WriteAt<uint32_t>(4, static_cast<uint32_t>(node.keys.size()));
  p->WriteAt<uint32_t>(8, node.children[0]);
  uint32_t off = 12;
  for (size_t i = 0; i < node.keys.size(); ++i) {
    p->WriteAt<uint16_t>(off, static_cast<uint16_t>(node.keys[i].size()));
    off += 2;
    std::memcpy(p->bytes() + off, node.keys[i].data(), node.keys[i].size());
    off += static_cast<uint32_t>(node.keys[i].size());
    p->WriteAt<uint32_t>(off, node.children[i + 1]);
    off += 4;
  }
  h.MarkDirty();
  return Status::Ok();
}

uint64_t BPlusTree::LeafSerializedSize(const LeafNode& n) {
  uint64_t size = 12;
  for (const LeafEntry& e : n.entries) size += 2 + e.key.size() + 8;
  return size;
}

uint64_t BPlusTree::InnerSerializedSize(const InnerNode& n) {
  uint64_t size = 12;
  for (const std::string& k : n.keys) size += 2 + k.size() + 4;
  return size;
}

Result<std::optional<BPlusTree::SplitResult>> BPlusTree::InsertRec(
    PageId node_id, std::string_view key, uint64_t payload) {
  BDBMS_ASSIGN_OR_RETURN(bool leaf, IsLeaf(node_id));
  if (leaf) {
    BDBMS_ASSIGN_OR_RETURN(LeafNode node, ReadLeaf(node_id));
    auto pos = std::upper_bound(
        node.entries.begin(), node.entries.end(), key,
        [](std::string_view k, const LeafEntry& e) { return k < e.key; });
    node.entries.insert(pos, {std::string(key), payload});
    if (LeafSerializedSize(node) <= kNodeBudget) {
      BDBMS_RETURN_IF_ERROR(WriteLeaf(node_id, node));
      return std::optional<SplitResult>();
    }
    // Split: right half moves to a new leaf.
    size_t mid = node.entries.size() / 2;
    LeafNode right;
    right.entries.assign(node.entries.begin() + mid, node.entries.end());
    node.entries.resize(mid);
    right.next = node.next;
    BDBMS_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    PageId right_id = rh.id();
    rh.Release();
    node.next = right_id;
    BDBMS_RETURN_IF_ERROR(WriteLeaf(right_id, right));
    BDBMS_RETURN_IF_ERROR(WriteLeaf(node_id, node));
    return std::optional<SplitResult>(
        SplitResult{right.entries.front().key, right_id});
  }

  BDBMS_ASSIGN_OR_RETURN(InnerNode node, ReadInner(node_id));
  size_t child_idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), std::string(key)) -
      node.keys.begin();
  BDBMS_ASSIGN_OR_RETURN(std::optional<SplitResult> split,
                         InsertRec(node.children[child_idx], key, payload));
  if (!split.has_value()) return std::optional<SplitResult>();

  node.keys.insert(node.keys.begin() + child_idx, split->separator);
  node.children.insert(node.children.begin() + child_idx + 1, split->right);
  if (InnerSerializedSize(node) <= kNodeBudget) {
    BDBMS_RETURN_IF_ERROR(WriteInner(node_id, node));
    return std::optional<SplitResult>();
  }
  // Split inner: middle key moves up.
  size_t mid = node.keys.size() / 2;
  std::string up_key = node.keys[mid];
  InnerNode right;
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.children.assign(node.children.begin() + mid + 1, node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  BDBMS_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  PageId right_id = rh.id();
  rh.Release();
  BDBMS_RETURN_IF_ERROR(WriteInner(right_id, right));
  BDBMS_RETURN_IF_ERROR(WriteInner(node_id, node));
  return std::optional<SplitResult>(SplitResult{std::move(up_key), right_id});
}

Status BPlusTree::Insert(std::string_view key, uint64_t payload) {
  if (key.size() > kMaxKeyLen) {
    return Status::InvalidArgument("b+-tree key exceeds 1 KiB");
  }
  BDBMS_ASSIGN_OR_RETURN(std::optional<SplitResult> split,
                         InsertRec(root_, key, payload));
  if (split.has_value()) {
    InnerNode new_root;
    new_root.keys.push_back(split->separator);
    new_root.children.push_back(root_);
    new_root.children.push_back(split->right);
    BDBMS_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    PageId new_root_id = rh.id();
    rh.Release();
    BDBMS_RETURN_IF_ERROR(WriteInner(new_root_id, new_root));
    root_ = new_root_id;
  }
  ++size_;
  return Status::Ok();
}

Result<PageId> BPlusTree::DescendToLeaf(std::string_view key) const {
  PageId node_id = root_;
  for (;;) {
    BDBMS_ASSIGN_OR_RETURN(bool leaf, IsLeaf(node_id));
    if (leaf) return node_id;
    BDBMS_ASSIGN_OR_RETURN(InnerNode node, ReadInner(node_id));
    // Descend to the leftmost child that can contain `key`: duplicates of
    // a separator key may sit in the left subtree, so use lower_bound.
    size_t idx =
        std::lower_bound(node.keys.begin(), node.keys.end(), std::string(key)) -
        node.keys.begin();
    node_id = node.children[idx];
  }
}

Status BPlusTree::ScanRange(
    std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, uint64_t)>& fn) const {
  BDBMS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(lo));
  while (leaf_id != kInvalidPageId) {
    BDBMS_ASSIGN_OR_RETURN(LeafNode node, ReadLeaf(leaf_id));
    for (const LeafEntry& e : node.entries) {
      if (e.key < lo) continue;
      if (e.key >= std::string(hi)) return Status::Ok();
      if (!fn(e.key, e.payload)) return Status::Ok();
    }
    leaf_id = node.next;
  }
  return Status::Ok();
}

Status BPlusTree::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, uint64_t)>& fn) const {
  if (prefix.empty()) {
    // Full scan from the leftmost leaf.
    BDBMS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(""));
    while (leaf_id != kInvalidPageId) {
      BDBMS_ASSIGN_OR_RETURN(LeafNode node, ReadLeaf(leaf_id));
      for (const LeafEntry& e : node.entries) {
        if (!fn(e.key, e.payload)) return Status::Ok();
      }
      leaf_id = node.next;
    }
    return Status::Ok();
  }
  // [prefix, prefix+1) — increment the last byte, handling 0xFF carries.
  std::string hi(prefix);
  size_t i = hi.size();
  while (i > 0) {
    if (static_cast<unsigned char>(hi[i - 1]) != 0xFF) {
      hi[i - 1] = static_cast<char>(static_cast<unsigned char>(hi[i - 1]) + 1);
      hi.resize(i);
      break;
    }
    --i;
  }
  if (i == 0) {
    // All-0xFF prefix: scan to the end of the key space.
    BDBMS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(prefix));
    while (leaf_id != kInvalidPageId) {
      BDBMS_ASSIGN_OR_RETURN(LeafNode node, ReadLeaf(leaf_id));
      for (const LeafEntry& e : node.entries) {
        if (e.key.compare(0, prefix.size(), prefix) == 0) {
          if (!fn(e.key, e.payload)) return Status::Ok();
        } else if (e.key > std::string(prefix)) {
          return Status::Ok();
        }
      }
      leaf_id = node.next;
    }
    return Status::Ok();
  }
  return ScanRange(prefix, hi, fn);
}

Status BPlusTree::Delete(std::string_view key, uint64_t payload) {
  BDBMS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(key));
  while (leaf_id != kInvalidPageId) {
    BDBMS_ASSIGN_OR_RETURN(LeafNode node, ReadLeaf(leaf_id));
    bool past = false;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].key == key && node.entries[i].payload == payload) {
        node.entries.erase(node.entries.begin() + i);
        BDBMS_RETURN_IF_ERROR(WriteLeaf(leaf_id, node));
        --size_;
        return Status::Ok();
      }
      if (node.entries[i].key > std::string(key)) {
        past = true;
        break;
      }
    }
    if (past) break;
    leaf_id = node.next;
  }
  return Status::NotFound("no such b+-tree entry");
}

}  // namespace bdbms
