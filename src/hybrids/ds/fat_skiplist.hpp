// Fat-node host index: a concurrent B-link structure with cache-line-sized
// multi-key nodes, replacing one-key-per-node pointer chasing in the host
// levels (the B-skiplist layout from PAPERS.md's "Bridging Cache-Friendliness
// and Concurrency"). It is the host portion of HybridSkipList; the
// pointer-node LfSkipList stays as the paper's lock-free baseline and the
// layout ablation's comparison point (bench/ablate_fatnode.cpp).
//
// Layout. Every node is two cache lines. Line 0 carries the seqlock word,
// the right-sibling link, packed metadata, the immutable anchor key and a
// sorted run of up to kFatKeys keys; line 1 carries the matching pointer
// slots. Leaf (level 0) slots point at LfSkipList::Node records — the same
// stable per-key entry struct the pointer-node layout uses, so everything
// downstream (NMP payload counterpart, packed (version,value) mirror CAS,
// hot-cache begin handles) is layout-agnostic. Index slots point at child
// fat nodes one level down. Index levels route over *nodes*, not per-entry
// towers: a leaf split promotes the right sibling's anchor into the parent
// level, so fanout is ~kFatKeys and a descent costs one (two-line) node per
// level instead of one line per key.
//
// Readers are lock-free via a per-node seqlock: version bit 0 is the writer
// lock, bit 1 marks a dead (empty, unlinked-or-unlinking) node, and every
// mutation bumps by kVersionStep. A reader snapshots the key run between two
// version reads and retries on mismatch; dead nodes are hopped via `next`.
// B-link invariant: a node owns keys in [anchor, next->anchor), so a reader
// that lands left of its target simply chases `next` — splits never block
// or restart a descent.
//
// Writers lock one node at a time (no hand-over-hand, no deadlock):
//   split    — under the lock: allocate right sibling, move the upper half,
//              publish via n->next; then, lock released, insert the routing
//              entry (right->anchor -> right) into the parent level, and
//              re-check the sibling's dead bit to sweep our own routing if a
//              concurrent remover emptied it meanwhile.
//   death    — removing the last slot kills the node (dead bit) under the
//              same lock, unlinks it from a *locked* live predecessor (an
//              unlocked CAS could race the predecessor's split and re-link
//              the corpse), removes the parent routing entry, then retires.
// Head sentinels per level never die; they may split (the left half stays
// the head).
//
// Reclamation. Entries retire through the familiar epoch-stamped Treiber
// stack back into the pool. Fat nodes also wait out the EBR grace period but
// are recycled through a structure-private freelist that *preserves the
// version word across reuse* (monotonically bumped, dead bit cleared): a
// stale hot-cache shortcut holding (leaf, version) can therefore never
// revalidate against a later incarnation at the same address — the
// fat-layout analogue of the paper's never-reuse rule for tall towers.
// Fat-node memory is only returned to the OS by the destructor.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

#include "hybrids/ds/lockfree_skiplist.hpp"
#include "hybrids/mem/ebr.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/mem/node_pool.hpp"
#include "hybrids/telemetry/counters.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/types.hpp"

namespace hybrids::ds {

class FatSkipList {
 public:
  using Entry = LfSkipList::Node;
  static constexpr int kMaxLevels = LfSkipList::kMaxLevels;
  static constexpr int kFatKeys = 8;

  static constexpr std::uint64_t kLockBit = 1;
  static constexpr std::uint64_t kDeadBit = 2;
  static constexpr std::uint64_t kVersionStep = 4;

  struct alignas(64) FatNode {
    // --- line 0: everything a descent reads ---
    std::atomic<std::uint64_t> version{kVersionStep};
    std::atomic<FatNode*> next{nullptr};
    std::atomic<std::uint32_t> meta{0};  // count | level<<8 | flags<<16
    Key anchor = 0;                      // creation-time key floor, immutable
    std::atomic<Key> keys[kFatKeys] = {};
    FatNode* down_head = nullptr;        // heads only: next level's sentinel
    // --- line 1: pointer slots (leaf: Entry*, index: child FatNode*) ---
    std::atomic<void*> ptrs[kFatKeys] = {};
  };
  static_assert(sizeof(FatNode) == 128, "fat node must stay two lines");
  static_assert(alignof(FatNode) == 64, "fat node must start on a line");
  static_assert(offsetof(FatNode, ptrs) == 64,
                "pointer slots must occupy their own line");
#if defined(__cpp_lib_hardware_interference_size)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
  static_assert(sizeof(FatNode) % std::hardware_destructive_interference_size
                        == 0 ||
                    std::hardware_destructive_interference_size % 64 != 0,
                "fat node is not a whole number of destructive-interference "
                "lines; retune kFatKeys for this target");
#pragma GCC diagnostic pop
#endif

  /// Result of a descent. `match`/`pred` are leaf entries (pred == nullptr
  /// means `key` precedes every resident entry); `leaf`/`leaf_version` name
  /// the validated fat node those slots were read from, the token the
  /// hot-cache shortcut tier revalidates with (node_version_is()).
  struct View {
    Entry* match = nullptr;
    Entry* pred = nullptr;
    void* leaf = nullptr;
    std::uint64_t leaf_version = 0;
  };

  explicit FatSkipList(int max_height)
      : max_height_(max_height),
        splits_(&telemetry::counter(telemetry::names::kMemFatnodeSplits)),
        keys_scanned_(
            &telemetry::counter(telemetry::names::kHostNodeKeysScanned)) {
    assert(max_height >= 1 && max_height <= kMaxLevels);
    for (int lvl = 0; lvl < max_height; ++lvl) {
      heads_[lvl] =
          alloc_fat(lvl, /*head=*/true, 0, lvl > 0 ? heads_[lvl - 1] : nullptr);
    }
  }

  ~FatSkipList() {
    for (Entry* e = retired_entries_.load(std::memory_order_relaxed);
         e != nullptr;) {
      Entry* nx = e->retire_next.load(std::memory_order_relaxed);
      pool_.deallocate(e, entry_bytes());
      e = nx;
    }
    for (FatNode* n = heads_[0]; n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      const int count = count_of(n->meta.load(std::memory_order_relaxed));
      for (int i = 0; i < count; ++i) {
        pool_.deallocate(n->ptrs[i].load(std::memory_order_relaxed),
                         entry_bytes());
      }
    }
    for (int lvl = 0; lvl < max_height_; ++lvl) {
      FatNode* n = heads_[lvl];
      while (n != nullptr) {
        FatNode* nx = n->next.load(std::memory_order_relaxed);
        pool_.deallocate(n, sizeof(FatNode));
        n = nx;
      }
    }
    FatNode* r = retired_fat_.load(std::memory_order_relaxed);
    while (r != nullptr) {
      FatNode* nx =
          static_cast<FatNode*>(r->ptrs[0].load(std::memory_order_relaxed));
      pool_.deallocate(r, sizeof(FatNode));
      r = nx;
    }
    FatNode* f = free_fat_;
    while (f != nullptr) {
      FatNode* nx =
          static_cast<FatNode*>(f->ptrs[0].load(std::memory_order_relaxed));
      pool_.deallocate(f, sizeof(FatNode));
      f = nx;
    }
  }

  FatSkipList(const FatSkipList&) = delete;
  FatSkipList& operator=(const FatSkipList&) = delete;

  int max_height() const { return max_height_; }

  // ----- readers ------------------------------------------------------------

  /// Optimistic descent. Returns true iff an entry with `key` is resident;
  /// fills `out` either way (miss: match == nullptr, pred = largest-key-below
  /// entry for begin-node derivation). Callers that use the returned entry
  /// pointers after this returns must hold their own EbrGuard around the
  /// whole window (guards are reentrant), exactly as with LfSkipList::find.
  bool find(Key key, View& out) {
    mem::EbrGuard guard;
    std::uint64_t scanned = 0;
    const LevelPos pos = descend(key, scanned);
    keys_scanned_->add(scanned);
    return finish_view(pos, key, out);
  }

  /// Wait-free-ish point lookup of the resident entry for `key` (nullptr on
  /// miss). The returned pointer is only stable under the caller's EbrGuard.
  Entry* get_node(Key key) {
    View w;
    return find(key, w) ? w.match : nullptr;
  }

  bool get(Key key, Value& out) {
    mem::EbrGuard guard;
    Entry* e = get_node(key);
    if (e == nullptr) return false;
    out = e->value_now();
    return true;
  }

  bool contains(Key key) {
    View w;
    return find(key, w);
  }

  /// Bottom-level range scan: stitch in-node sorted runs, hopping leaves via
  /// the sibling link. Each validated leaf snapshot prefetches every
  /// qualifying entry line before touching the first value, so the entry
  /// reads overlap (the fat layout's scan win is memory-level parallelism,
  /// not fewer entry lines).
  std::size_t scan(Key start, std::size_t count, ScanEntry* out) {
    if (count == 0) return 0;
    mem::EbrGuard guard;
    std::uint64_t scanned = 0;
    const LevelPos pos = descend(start, scanned);
    // owner can transiently be null (walk ended in a dying tail); restart
    // from the best node seen, or the leaf head — the per-node `first`
    // filter below keeps the output exact either way.
    FatNode* n = pos.owner != nullptr
                     ? pos.owner
                     : (pos.le.node != nullptr ? pos.le.node : heads_[0]);
    std::size_t filled = 0;
    Key ks[kFatKeys];
    Entry* es[kFatKeys];
    while (n != nullptr && filled < count) {
      FatNode* nx = nullptr;
      int c;
      for (;;) {
        const std::uint64_t v = n->version.load(std::memory_order_acquire);
        if ((v & kLockBit) != 0) {
          cpu_relax();
          continue;
        }
        nx = n->next.load(std::memory_order_acquire);
        if ((v & kDeadBit) != 0) {
          c = 0;
          break;
        }
        c = count_of(n->meta.load(std::memory_order_relaxed));
        for (int i = 0; i < c; ++i) {
          ks[i] = n->keys[i].load(std::memory_order_relaxed);
          es[i] = static_cast<Entry*>(
              n->ptrs[i].load(std::memory_order_relaxed));
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (n->version.load(std::memory_order_relaxed) == v) break;
      }
      if (c > 0) {
        scanned += static_cast<std::uint64_t>(c);
        int first = 0;
        while (first < c && ks[first] < start) ++first;
        for (int i = first; i < c; ++i) mem::prefetch_read(es[i]);
        if (nx != nullptr) mem::prefetch_object(nx, sizeof(FatNode));
        for (int i = first; i < c && filled < count; ++i) {
          out[filled].key = ks[i];
          out[filled].value = es[i]->value_now();
          ++filled;
        }
      }
      n = nx;
    }
    keys_scanned_->add(scanned);
    return filled;
  }

  // ----- writers ------------------------------------------------------------

  /// Allocates an entry record (leaf slot target). Same field contract as
  /// LfSkipList::make_node; `height` is recorded for parity but plays no
  /// structural role in the fat layout.
  Entry* make_entry(Key key, Value value, int height, void* payload = nullptr) {
    void* raw = pool_.allocate(entry_bytes());
    Entry* e = static_cast<Entry*>(raw);
    e->key = key;
    new (&e->value) std::atomic<std::uint64_t>(LfSkipList::pack_value(0, value));
    e->height = static_cast<std::uint16_t>(height);
    e->payload = payload;
    new (&e->retire_next) std::atomic<Entry*>(nullptr);
    e->retire_epoch = 0;
    new (&e->next[0]) std::atomic<std::uintptr_t>(0);
    return e;
  }

  /// Frees an entry that never got linked (lost insert race).
  void free_unlinked(Entry* e) { pool_.deallocate(e, entry_bytes()); }

  /// Links a prepared entry. Returns false (entry untouched, caller frees)
  /// when the key is already resident.
  bool insert_node(Entry* e) {
    mem::EbrGuard guard;
    std::uint64_t scanned = 0;
    const LevelPos pos = descend(e->key, scanned);
    keys_scanned_->add(scanned);
    FatNode* start = pos.owner != nullptr ? pos.owner : heads_[0];
    return insert_slot(0, start, e->key, e, /*overwrite_dup=*/false) ==
           SlotIns::kDone;
  }

  bool insert(Key key, Value value) {
    Entry* e = make_entry(key, value, 1);
    if (insert_node(e)) return true;
    free_unlinked(e);
    return false;
  }

  /// Unlinks the entry for `key`. Returns false when absent (or when the
  /// resident incarnation changed under us and its remover won).
  bool remove(Key key) {
    mem::EbrGuard guard;
    for (;;) {
      View w;
      if (!find(key, w)) return false;
      if (remove_slot(0, key, w.match)) {
        retire_entry(w.match);
        maybe_reclaim();
        return true;
      }
      // Lost to a concurrent remover of this incarnation — unless an insert
      // already replaced it, in which case loop and target the new one.
      View again;
      if (!find(key, again) || again.match == w.match) return false;
    }
  }

  // ----- introspection ------------------------------------------------------

  /// True iff the fat node behind `leaf` still carries the exact seqlock
  /// stamp a View handed out — i.e. not one slot has moved since. Guard-free:
  /// fat-node memory stays mapped for the structure's lifetime and recycled
  /// incarnations continue the version sequence, so a stale token can only
  /// mismatch, never falsely match.
  bool node_version_is(const void* leaf, std::uint64_t ver) const {
    return static_cast<const FatNode*>(leaf)->version.load(
               std::memory_order_acquire) == ver;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const FatNode* f = heads_[0]; f != nullptr;
         f = f->next.load(std::memory_order_acquire)) {
      if ((f->version.load(std::memory_order_acquire) & kDeadBit) != 0)
        continue;
      n += static_cast<std::size_t>(
          count_of(f->meta.load(std::memory_order_acquire)));
    }
    return n;
  }

  /// Visits every resident leaf entry in key order. Quiescent-state only
  /// (validation/teardown walks).
  template <class F>
  void for_each_entry(F&& f) const {
    for (const FatNode* n = heads_[0]; n != nullptr;
         n = n->next.load(std::memory_order_relaxed)) {
      const int count = count_of(n->meta.load(std::memory_order_relaxed));
      for (int i = 0; i < count; ++i) {
        f(static_cast<Entry*>(n->ptrs[i].load(std::memory_order_relaxed)));
      }
    }
  }

  /// Structural invariant check; call quiescent. Verifies per-level sorted
  /// anchors/keys, anchor floors, meta level tags, no locked or dead nodes
  /// left linked, leaf slots matching their keys, and index slots routing to
  /// children whose anchor equals the routing key one level down.
  bool validate() const {
    for (int lvl = 0; lvl < max_height_; ++lvl) {
      Key prev = 0;
      bool have_prev = false;
      for (const FatNode* n = heads_[lvl]; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        const std::uint64_t v = n->version.load(std::memory_order_relaxed);
        if ((v & (kLockBit | kDeadBit)) != 0) return false;
        const std::uint32_t m = n->meta.load(std::memory_order_relaxed);
        const int count = count_of(m);
        if (level_of(m) != lvl || count > kFatKeys) return false;
        if (n != heads_[lvl]) {
          if (is_head(m) || count == 0) return false;
          if (have_prev && n->anchor <= prev) return false;
        }
        for (int i = 0; i < count; ++i) {
          const Key k = n->keys[i].load(std::memory_order_relaxed);
          if (k < n->anchor) return false;
          if (have_prev && k <= prev) return false;
          prev = k;
          have_prev = true;
          const void* p = n->ptrs[i].load(std::memory_order_relaxed);
          if (p == nullptr) return false;
          if (lvl == 0) {
            if (static_cast<const Entry*>(p)->key != k) return false;
          } else {
            const FatNode* child = static_cast<const FatNode*>(p);
            const std::uint32_t cm = child->meta.load(std::memory_order_relaxed);
            if (child->anchor != k || level_of(cm) != lvl - 1) return false;
            if ((child->version.load(std::memory_order_relaxed) & kDeadBit) !=
                0) {
              return false;
            }
          }
        }
      }
    }
    return true;
  }

  std::size_t retired_count() const {
    return retired_entry_count_.load(std::memory_order_relaxed) +
           retired_fat_count_.load(std::memory_order_relaxed);
  }

  /// Drains both retire stacks: entries whose grace period elapsed return to
  /// the pool; fat nodes move to the version-continuing freelist. Returns how
  /// many were reclaimed.
  std::size_t reclaim_retired() {
    if (draining_.exchange(true, std::memory_order_acquire)) return 0;
    mem::Ebr::try_advance();
    std::size_t freed = 0;

    Entry* list = retired_entries_.exchange(nullptr, std::memory_order_acq_rel);
    Entry* keep_head = nullptr;
    Entry* keep_tail = nullptr;
    std::size_t kept = 0;
    while (list != nullptr) {
      Entry* nx = list->retire_next.load(std::memory_order_relaxed);
      if (mem::Ebr::safe(list->retire_epoch)) {
        pool_.deallocate(list, entry_bytes());
        ++freed;
      } else {
        list->retire_next.store(keep_head, std::memory_order_relaxed);
        keep_head = list;
        if (keep_tail == nullptr) keep_tail = list;
        ++kept;
      }
      list = nx;
    }
    if (keep_head != nullptr) splice_entries(keep_head, keep_tail);
    retired_entry_count_.store(kept, std::memory_order_relaxed);

    FatNode* flist = retired_fat_.exchange(nullptr, std::memory_order_acq_rel);
    FatNode* fkeep_head = nullptr;
    FatNode* fkeep_tail = nullptr;
    std::size_t fkept = 0;
    while (flist != nullptr) {
      FatNode* nx =
          static_cast<FatNode*>(flist->ptrs[0].load(std::memory_order_relaxed));
      const auto epoch = reinterpret_cast<std::uint64_t>(
          flist->ptrs[1].load(std::memory_order_relaxed));
      if (mem::Ebr::safe(epoch)) {
        push_free_fat(flist);
        ++freed;
      } else {
        flist->ptrs[0].store(fkeep_head, std::memory_order_relaxed);
        fkeep_head = flist;
        if (fkeep_tail == nullptr) fkeep_tail = flist;
        ++fkept;
      }
      flist = nx;
    }
    if (fkeep_head != nullptr) splice_fat(fkeep_head, fkeep_tail);
    retired_fat_count_.store(fkept, std::memory_order_relaxed);

    draining_.store(false, std::memory_order_release);
    return freed;
  }

  mem::NodePool& pool() { return pool_; }

 private:
  static constexpr int kDrainInterval = 32;

  static int count_of(std::uint32_t meta) {
    return static_cast<int>(meta & 0xFF);
  }
  static int level_of(std::uint32_t meta) {
    return static_cast<int>((meta >> 8) & 0xFF);
  }
  static bool is_head(std::uint32_t meta) { return (meta & (1u << 16)) != 0; }
  static std::uint32_t make_meta(int count, int level, bool head) {
    return static_cast<std::uint32_t>(count) |
           (static_cast<std::uint32_t>(level) << 8) |
           (head ? (1u << 16) : 0u);
  }
  static std::size_t entry_bytes() { return sizeof(Entry); }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// One validated slot observation: the node and seqlock stamp it was read
  /// under, the key, and its pointer payload.
  struct Slot {
    FatNode* node = nullptr;
    std::uint64_t ver = 0;
    Key key = 0;
    void* ptr = nullptr;
  };

  /// Where a level walk ended: the node whose range covers the target
  /// (`owner`) plus the best <= / < slots seen across every node visited —
  /// tracked across nodes because removals can leave the owner without any
  /// key at-or-below the target even though an earlier node had one.
  struct LevelPos {
    FatNode* owner = nullptr;
    std::uint64_t owner_ver = 0;
    Slot le;  // largest key <= target
    Slot lt;  // largest key <  target
  };

  /// Rightward walk from `start` (anchor <= key required, head included).
  void do_walk(FatNode* n, Key key, LevelPos& out,
               std::uint64_t& scanned) const {
    out = LevelPos{};
    for (;;) {
      const std::uint64_t v = n->version.load(std::memory_order_acquire);
      if ((v & kLockBit) != 0) {
        cpu_relax();
        continue;
      }
      if ((v & kDeadBit) != 0) {
        FatNode* nx = n->next.load(std::memory_order_acquire);
        if (nx == nullptr) return;
        n = nx;
        continue;
      }
      FatNode* nx = n->next.load(std::memory_order_acquire);
      const std::uint32_t m = n->meta.load(std::memory_order_relaxed);
      const int count = count_of(m);
      int le = -1;
      int lt = -1;
      Key k_le = 0;
      Key k_lt = 0;
      int looked = 0;
      for (int i = 0; i < count; ++i) {
        const Key k = n->keys[i].load(std::memory_order_relaxed);
        ++looked;
        if (k > key) break;
        le = i;
        k_le = k;
        if (k < key) {
          lt = i;
          k_lt = k;
        }
      }
      void* p_le = le >= 0 ? n->ptrs[le].load(std::memory_order_relaxed)
                           : nullptr;
      void* p_lt = lt >= 0 ? n->ptrs[lt].load(std::memory_order_relaxed)
                           : nullptr;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (n->version.load(std::memory_order_relaxed) != v) continue;
      scanned += static_cast<std::uint64_t>(looked);
      if (le >= 0) out.le = Slot{n, v, k_le, p_le};
      if (lt >= 0) out.lt = Slot{n, v, k_lt, p_lt};
      if (nx == nullptr || nx->anchor > key) {
        out.owner = n;
        out.owner_ver = v;
        return;
      }
      // B-link hop: the target lies right of this node's range. The hop goes
      // through the validated snapshot above on purpose — every key here is
      // < nx->anchor <= target, so this node's last slot is the best
      // predecessor candidate so far and must roll into out.le/out.lt (the
      // owner may have lost all its at-or-below keys to removals).
      mem::prefetch_object(nx, sizeof(FatNode));
      n = nx;
    }
  }

  /// do_walk, retried once from the level head when a non-head start yields
  /// no <=-slot (the start hint's range may have been swallowed by deaths).
  void walk_level(FatNode* start, int lvl, Key key, LevelPos& out,
                  std::uint64_t& scanned) const {
    do_walk(start, key, out, scanned);
    if (out.le.node == nullptr && start != heads_[lvl]) {
      do_walk(heads_[lvl], key, out, scanned);
    }
  }

  LevelPos descend(Key key, std::uint64_t& scanned) const {
    LevelPos pos{};
    FatNode* start = heads_[max_height_ - 1];
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      mem::prefetch_object(start, sizeof(FatNode));
      walk_level(start, lvl, key, pos, scanned);
      if (lvl > 0) {
        start = pos.le.node != nullptr ? static_cast<FatNode*>(pos.le.ptr)
                                       : heads_[lvl - 1];
      }
    }
    return pos;
  }

  bool finish_view(const LevelPos& pos, Key key, View& out) const {
    if (pos.le.node != nullptr && pos.le.key == key) {
      out.match = static_cast<Entry*>(pos.le.ptr);
      out.pred =
          pos.lt.node != nullptr ? static_cast<Entry*>(pos.lt.ptr) : nullptr;
      out.leaf = pos.le.node;
      out.leaf_version = pos.le.ver;
      return true;
    }
    out.match = nullptr;
    if (pos.le.node != nullptr) {
      out.pred = static_cast<Entry*>(pos.le.ptr);
      out.leaf = pos.le.node;
      out.leaf_version = pos.le.ver;
    } else {
      out.pred = nullptr;
      out.leaf = pos.owner;
      out.leaf_version = pos.owner_ver;
    }
    return false;
  }

  // ----- seqlock ------------------------------------------------------------

  /// Acquires the writer lock; false iff the node died first. On success `v`
  /// holds the pre-lock (even) version.
  bool lock_node(FatNode* n, std::uint64_t& v) {
    for (;;) {
      std::uint64_t cur = n->version.load(std::memory_order_relaxed);
      if ((cur & kDeadBit) != 0) return false;
      if ((cur & kLockBit) != 0) {
        cpu_relax();
        continue;
      }
      if (n->version.compare_exchange_weak(cur, cur | kLockBit,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        // Store-store barrier: without it a weakly-ordered machine could
        // make in-section data stores visible before the odd version word,
        // letting a reader validate a torn snapshot.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        v = cur;
        return true;
      }
    }
  }

  void unlock_node(FatNode* n, std::uint64_t v, bool dirty) {
    n->version.store(dirty ? v + kVersionStep : v, std::memory_order_release);
  }

  /// Terminal unlock: bumps and sets the dead bit (the node is empty and
  /// about to be unlinked). Readers hop it; writers refuse to lock it.
  void kill_node(FatNode* n, std::uint64_t v) {
    n->version.store((v + kVersionStep) | kDeadBit, std::memory_order_release);
  }

  // ----- slot mutation ------------------------------------------------------

  enum class SlotIns { kDone, kExists };

  /// Locked insert of (key -> ptr) at `lvl`, splitting on overflow.
  /// `overwrite_dup` is the index-level mode: a routing key colliding with a
  /// dead child's not-yet-swept entry takes over the slot.
  SlotIns insert_slot(int lvl, FatNode* start, Key key, void* ptr,
                      bool overwrite_dup) {
    mem::EbrGuard guard;
    FatNode* n = start;
    for (;;) {
      if (n == nullptr || n->anchor > key) {
        n = heads_[lvl];
        continue;
      }
      FatNode* nx = n->next.load(std::memory_order_acquire);
      if (nx != nullptr && nx->anchor <= key) {
        n = nx;
        continue;
      }
      std::uint64_t v;
      if (!lock_node(n, v)) {
        n = n->next.load(std::memory_order_acquire);
        continue;
      }
      nx = n->next.load(std::memory_order_relaxed);
      if (nx != nullptr && nx->anchor <= key) {
        unlock_node(n, v, false);  // ownership moved right while we locked
        n = nx;
        continue;
      }
      const std::uint32_t m = n->meta.load(std::memory_order_relaxed);
      const int count = count_of(m);
      int pos = 0;
      while (pos < count && n->keys[pos].load(std::memory_order_relaxed) < key)
        ++pos;
      if (pos < count &&
          n->keys[pos].load(std::memory_order_relaxed) == key) {
        if (overwrite_dup) {
          n->ptrs[pos].store(ptr, std::memory_order_relaxed);
          unlock_node(n, v, true);
          return SlotIns::kDone;
        }
        unlock_node(n, v, false);
        return SlotIns::kExists;
      }
      if (count == kFatKeys) {
        split_locked(n, v, lvl);  // unlocks n
        continue;
      }
      for (int i = count; i > pos; --i) {
        n->keys[i].store(n->keys[i - 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        n->ptrs[i].store(n->ptrs[i - 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      }
      n->keys[pos].store(key, std::memory_order_relaxed);
      n->ptrs[pos].store(ptr, std::memory_order_relaxed);
      n->meta.store(m + 1, std::memory_order_relaxed);
      unlock_node(n, v, true);
      return SlotIns::kDone;
    }
  }

  /// Splits a full locked node, releasing its lock. The right sibling is
  /// published through n->next first (B-link: immediately reachable), then
  /// routed into the parent level.
  void split_locked(FatNode* n, std::uint64_t v, int lvl) {
    constexpr int kHalf = kFatKeys / 2;
    const Key ranchor = n->keys[kHalf].load(std::memory_order_relaxed);
    FatNode* right = alloc_fat(lvl, /*head=*/false, ranchor, nullptr);
    for (int i = kHalf; i < kFatKeys; ++i) {
      right->keys[i - kHalf].store(n->keys[i].load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
      right->ptrs[i - kHalf].store(n->ptrs[i].load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
    }
    right->meta.store(make_meta(kFatKeys - kHalf, lvl, false),
                      std::memory_order_relaxed);
    right->next.store(n->next.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    n->next.store(right, std::memory_order_release);
    n->meta.store(make_meta(kHalf, lvl, is_head(n->meta.load(
                                            std::memory_order_relaxed))),
                  std::memory_order_relaxed);
    unlock_node(n, v, true);
    splits_->inc();
    if (lvl + 1 < max_height_) {
      insert_slot(lvl + 1, heads_[lvl + 1], ranchor, right,
                  /*overwrite_dup=*/true);
      // The sibling may have emptied and died before our routing entry
      // landed, in which case its remover's sweep ran too early — sweep it
      // ourselves. (Its seq_cst kill store and our routing publication are
      // totally ordered, so at least one side observes the other.)
      if ((right->version.load(std::memory_order_acquire) & kDeadBit) != 0) {
        remove_slot(lvl + 1, ranchor, right);
      }
    }
  }

  /// Locked removal of the slot for `key` at `lvl`, only if it still maps to
  /// `expected` (a leaf entry or a routed child — the identity check is what
  /// makes racing removers and routing sweeps safe). Handles node death:
  /// kill, unlink from a locked predecessor, sweep the parent routing entry,
  /// retire.
  bool remove_slot(int lvl, Key key, void* expected) {
    mem::EbrGuard guard;
    FatNode* n = heads_[lvl];
    for (;;) {
      if (n == nullptr || n->anchor > key) {
        n = heads_[lvl];
        continue;
      }
      FatNode* nx = n->next.load(std::memory_order_acquire);
      if (nx != nullptr && nx->anchor <= key) {
        n = nx;
        continue;
      }
      std::uint64_t v;
      if (!lock_node(n, v)) {
        n = n->next.load(std::memory_order_acquire);
        continue;
      }
      nx = n->next.load(std::memory_order_relaxed);
      if (nx != nullptr && nx->anchor <= key) {
        unlock_node(n, v, false);
        n = nx;
        continue;
      }
      const std::uint32_t m = n->meta.load(std::memory_order_relaxed);
      const int count = count_of(m);
      int pos = 0;
      while (pos < count && n->keys[pos].load(std::memory_order_relaxed) < key)
        ++pos;
      if (pos == count ||
          n->keys[pos].load(std::memory_order_relaxed) != key ||
          n->ptrs[pos].load(std::memory_order_relaxed) != expected) {
        unlock_node(n, v, false);
        return false;
      }
      for (int i = pos; i < count - 1; ++i) {
        n->keys[i].store(n->keys[i + 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        n->ptrs[i].store(n->ptrs[i + 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      }
      n->meta.store(m - 1, std::memory_order_relaxed);
      if (count == 1 && !is_head(m)) {
        kill_node(n, v);
        unlink_dead(n, lvl);
        if (lvl + 1 < max_height_) remove_slot(lvl + 1, n->anchor, n);
        retire_fat(n);
      } else {
        unlock_node(n, v, true);
      }
      return true;
    }
  }

  /// Physically unlinks a dead node. The predecessor must be *locked* for
  /// the swing: a plain CAS could interleave with that predecessor's split
  /// re-reading `next`, resurrecting the corpse in the new sibling.
  void unlink_dead(FatNode* dead, int lvl) {
    for (;;) {
      FatNode* p = heads_[lvl];
      FatNode* nx = p->next.load(std::memory_order_acquire);
      while (nx != nullptr && nx != dead) {
        if (nx->anchor > dead->anchor) return;  // someone already unlinked it
        p = nx;
        nx = p->next.load(std::memory_order_acquire);
      }
      if (nx != dead) return;
      std::uint64_t v;
      if (!lock_node(p, v)) continue;  // pred died too; its killer goes first
      if (p->next.load(std::memory_order_relaxed) != dead) {
        unlock_node(p, v, false);
        continue;
      }
      p->next.store(dead->next.load(std::memory_order_acquire),
                    std::memory_order_release);
      // Shape-only change: p's key run is untouched, so no version bump —
      // shortcut tokens into p stay fresh.
      unlock_node(p, v, false);
      return;
    }
  }

  // ----- allocation / reclamation -------------------------------------------

  FatNode* alloc_fat(int lvl, bool head, Key anchor, FatNode* down_head) {
    FatNode* n = pop_free_fat();
    if (n != nullptr) {
      // Version continuity across reuse (see file header): clear the dead
      // bit, keep climbing.
      const std::uint64_t v = n->version.load(std::memory_order_relaxed);
      n->version.store((v & ~kDeadBit) + kVersionStep,
                       std::memory_order_relaxed);
      n->next.store(nullptr, std::memory_order_relaxed);
      for (int i = 0; i < kFatKeys; ++i) {
        n->keys[i].store(0, std::memory_order_relaxed);
        n->ptrs[i].store(nullptr, std::memory_order_relaxed);
      }
    } else {
      void* raw = pool_.allocate(sizeof(FatNode));
      n = new (raw) FatNode();
    }
    n->meta.store(make_meta(0, lvl, head), std::memory_order_relaxed);
    n->anchor = anchor;
    n->down_head = down_head;
    return n;
  }

  void retire_entry(Entry* e) {
    e->retire_epoch = mem::Ebr::current();
    Entry* head = retired_entries_.load(std::memory_order_relaxed);
    do {
      e->retire_next.store(head, std::memory_order_relaxed);
    } while (!retired_entries_.compare_exchange_weak(
        head, e, std::memory_order_release, std::memory_order_relaxed));
    retired_entry_count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Dead fat nodes keep `next` intact for in-flight hoppers; the retire
  /// link and epoch stamp live in the pointer line, which no reader touches
  /// once the dead bit is up.
  void retire_fat(FatNode* n) {
    n->ptrs[1].store(reinterpret_cast<void*>(mem::Ebr::current()),
                     std::memory_order_relaxed);
    FatNode* head = retired_fat_.load(std::memory_order_relaxed);
    do {
      n->ptrs[0].store(head, std::memory_order_relaxed);
    } while (!retired_fat_.compare_exchange_weak(
        head, n, std::memory_order_release, std::memory_order_relaxed));
    retired_fat_count_.fetch_add(1, std::memory_order_relaxed);
    maybe_reclaim();
  }

  void maybe_reclaim() {
    if (retire_ticks_.fetch_add(1, std::memory_order_relaxed) %
            kDrainInterval ==
        kDrainInterval - 1) {
      reclaim_retired();
    }
  }

  void splice_entries(Entry* head, Entry* tail) {
    Entry* cur = retired_entries_.load(std::memory_order_relaxed);
    do {
      tail->retire_next.store(cur, std::memory_order_relaxed);
    } while (!retired_entries_.compare_exchange_weak(
        cur, head, std::memory_order_release, std::memory_order_relaxed));
  }

  void splice_fat(FatNode* head, FatNode* tail) {
    FatNode* cur = retired_fat_.load(std::memory_order_relaxed);
    do {
      tail->ptrs[0].store(cur, std::memory_order_relaxed);
    } while (!retired_fat_.compare_exchange_weak(
        cur, head, std::memory_order_release, std::memory_order_relaxed));
  }

  void push_free_fat(FatNode* n) {
    while (free_lock_.exchange(true, std::memory_order_acquire)) cpu_relax();
    n->ptrs[0].store(free_fat_, std::memory_order_relaxed);
    free_fat_ = n;
    free_lock_.store(false, std::memory_order_release);
  }

  FatNode* pop_free_fat() {
    while (free_lock_.exchange(true, std::memory_order_acquire)) cpu_relax();
    FatNode* n = free_fat_;
    if (n != nullptr) {
      free_fat_ =
          static_cast<FatNode*>(n->ptrs[0].load(std::memory_order_relaxed));
    }
    free_lock_.store(false, std::memory_order_release);
    return n;
  }

  const int max_height_;
  mem::NodePool pool_;
  FatNode* heads_[kMaxLevels] = {};
  std::atomic<Entry*> retired_entries_{nullptr};
  std::atomic<FatNode*> retired_fat_{nullptr};
  std::atomic<std::size_t> retired_entry_count_{0};
  std::atomic<std::size_t> retired_fat_count_{0};
  std::atomic<std::uint64_t> retire_ticks_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> free_lock_{false};
  FatNode* free_fat_ = nullptr;
  telemetry::Counter* splits_;
  telemetry::Counter* keys_scanned_;
};

}  // namespace hybrids::ds
