// HostIndex: the hybrid structures' host-level ordered index behind one
// concrete facade, selecting between the two interchangeable engines at
// construction time:
//
//   - FatSkipList  — cache-line-sized multi-key B-link nodes (default;
//                    fat_skiplist.hpp), one two-line node per level of a
//                    descent,
//   - LfSkipList   — the classic one-key-per-node marked-pointer skiplist
//                    (lockfree_skiplist.hpp), kept as the -DHYBRIDS_NO_FATNODE
//                    fallback and the ablation baseline.
//
// Both engines expose the same per-key Entry record (LfSkipList::Node), so
// everything the hybrid structures pin to entries — NMP counterpart payloads,
// packed (version,value) mirror CAS via LfSkipList::update_versioned, begin
// -node shortcut handles — is identical across layouts; consumers only see
// the Window result of a descent. The layout toggle (set_fatnode_enabled) is
// sampled once per constructed index so benches can A/B under one binary.
#pragma once

#include <cstdint>
#include <optional>

#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/lockfree_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/types.hpp"

namespace hybrids::ds {

class HostIndex {
 public:
  using Node = LfSkipList::Node;
  static constexpr int kMaxLevels = LfSkipList::kMaxLevels;

  /// What a descent saw at the bottom level. `pred` is the largest-key-below
  /// resident entry (nullptr: `key` precedes everything — begin at the
  /// partition head). In fat mode `leaf`/`leaf_version` identify the
  /// validated fat node backing match/pred, the token shortcut_fresh()
  /// revalidates; the pointer-node engine leaves them null/0 (its entries
  /// are begin-candidates for the structure's lifetime, no revalidation
  /// needed).
  struct Window {
    Node* match = nullptr;
    Node* pred = nullptr;
    void* leaf = nullptr;
    std::uint64_t leaf_version = 0;
  };

  explicit HostIndex(int max_height) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fatnode_enabled()) {
      fat_.emplace(max_height);
      return;
    }
#endif
    lf_.emplace(max_height);
  }

  /// Which engine this instance was built with.
  bool fat() const {
#if !defined(HYBRIDS_NO_FATNODE)
    return fat_.has_value();
#else
    return false;
#endif
  }

  int max_height() const {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->max_height();
#endif
    return lf_->max_height();
  }

  /// Callers that keep using Window entry pointers after the call must hold
  /// their own (reentrant) EbrGuard around the whole window, as with the
  /// underlying engines.
  bool find(Key key, Window& w) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) {
      FatSkipList::View v;
      const bool hit = fat_->find(key, v);
      w = Window{v.match, v.pred, v.leaf, v.leaf_version};
      return hit;
    }
#endif
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    const bool hit = lf_->find(key, preds, succs);
    w.match = hit ? succs[0] : nullptr;
    w.pred = preds[0] == lf_->head() ? nullptr : preds[0];
    w.leaf = nullptr;
    w.leaf_version = 0;
    return hit;
  }

  host::CoTask<bool> find_co(Key key, Window* w) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) {
      FatSkipList::View v;
      const bool hit = co_await fat_->find_co(key, &v);
      *w = Window{v.match, v.pred, v.leaf, v.leaf_version};
      co_return hit;
    }
#endif
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    const bool hit = co_await lf_->find_co(key, preds, succs);
    w->match = hit ? succs[0] : nullptr;
    w->pred = preds[0] == lf_->head() ? nullptr : preds[0];
    w->leaf = nullptr;
    w->leaf_version = 0;
    co_return hit;
  }

  Node* get_node(Key key) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->get_node(key);
#endif
    return lf_->get_node(key);
  }

  Node* make_node(Key key, Value value, int height, void* payload = nullptr) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->make_entry(key, value, height, payload);
#endif
    return lf_->make_node(key, value, height, payload);
  }

  void free_unlinked(Node* n) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) {
      fat_->free_unlinked(n);
      return;
    }
#endif
    lf_->free_unlinked(n);
  }

  bool insert_node(Node* n) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->insert_node(n);
#endif
    return lf_->insert_node(n);
  }

  bool remove(Key key) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->remove(key);
#endif
    return lf_->remove(key);
  }

  /// Bottom-level range scan (both engines stitch sorted runs; the fat
  /// engine additionally prefetches whole leaf runs for MLP).
  std::size_t scan(Key start, std::size_t count, ScanEntry* out) {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->scan(start, count, out);
#endif
    return lf_->scan(start, count, out);
  }

  /// Shortcut revalidation: true iff a cached begin handle derived under
  /// (leaf, ver) is still exact. Pointer-node entries never move, so the
  /// engine without leaf tokens always answers fresh.
  bool shortcut_fresh(const void* leaf, std::uint64_t ver) const {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->node_version_is(leaf, ver);
#endif
    (void)leaf;
    (void)ver;
    return true;
  }

  std::size_t size() const {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->size();
#endif
    return lf_->size();
  }

  bool validate() const {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->validate();
#endif
    return lf_->validate();
  }

  std::size_t retired_count() const {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->retired_count();
#endif
    return lf_->retired_count();
  }

  std::size_t reclaim_retired() {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) return fat_->reclaim_retired();
#endif
    return lf_->reclaim_retired();
  }

  /// Visits every resident entry in key order; quiescent-state walks only
  /// (validation, teardown).
  template <class F>
  void for_each_entry(F&& f) const {
#if !defined(HYBRIDS_NO_FATNODE)
    if (fat_) {
      fat_->for_each_entry(f);
      return;
    }
#endif
    for (Node* n = lf_->head()->next_ptr(0); n != nullptr; n = n->next_ptr(0)) {
      if (!n->marked_at(0)) f(n);
    }
  }

 private:
  std::optional<LfSkipList> lf_;
#if !defined(HYBRIDS_NO_FATNODE)
  std::optional<FatSkipList> fat_;
#endif
};

}  // namespace hybrids::ds
