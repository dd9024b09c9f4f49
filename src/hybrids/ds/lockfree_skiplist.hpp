// Lock-free skiplist (Herlihy–Lev–Shavit / Fraser), the paper's non-NMP
// skiplist baseline. Its Node is also the per-key entry record the hybrid
// skiplist's fat-node host index (fat_skiplist.hpp) points its leaves at.
//
// Next pointers are marked pointers updated by CAS: the low bit marks the
// *source node* as logically deleted at that level. find() helps by snipping
// marked nodes; contains()/get() are wait-free traversals.
//
// Reclamation: towers come from a sharded slab pool (mem/node_pool.hpp).
// Removed towers are stamped with the current epoch and pushed on a Treiber
// retire stack; remove() periodically drains the stack, recycling every
// tower whose epoch-based grace period (mem/ebr.hpp) has elapsed back into
// the pool freelists — so the retired set stays bounded under churn instead
// of growing until destruction. Every public operation pins an EbrGuard for
// its pointer-chasing window; callers that keep using returned Node pointers
// after a call returns must hold their own guard around the whole window —
// guards are reentrant.
// Chunk memory is only returned to the OS by the destructor.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>

#include "hybrids/mem/ebr.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/mem/node_pool.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/rng.hpp"

namespace hybrids::ds {

/// Draws a tower height from the paper's distribution: every node appears at
/// level 0; a node at level i appears at level i+1 with probability 1/2.
inline int random_height(util::Xoshiro256& rng, int max_height) {
  int h = 1;
  while (h < max_height && (rng.next() & 1) != 0) ++h;
  return h;
}

class LfSkipList {
 public:
  /// Values are stored packed with a 32-bit version tag. The baseline
  /// skiplist always uses version 0; the hybrid skiplist threads the NMP
  /// partition's per-node update counter through so that host-side value
  /// mirrors converge under concurrent updates (§3.3's insert/update races).
  static std::uint64_t pack_value(std::uint32_t version, Value v) {
    return (static_cast<std::uint64_t>(version) << 32) | v;
  }
  static Value unpack_value(std::uint64_t packed) {
    return static_cast<Value>(packed & 0xFFFFFFFFu);
  }
  static std::uint32_t unpack_version(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed >> 32);
  }

  struct Node {
    Key key;
    std::atomic<std::uint64_t> value;  // packed (version, value)
    std::uint16_t height;
    void* payload;                     // hybrid host levels: nmp_ptr counterpart
    std::atomic<Node*> retire_next;    // Treiber retire-stack link
    std::uint64_t retire_epoch;        // EBR stamp, set once at retire()
    std::atomic<std::uintptr_t> next[1];  // marked-pointer bits, `height` slots

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    Value value_now() const {
      return unpack_value(value.load(std::memory_order_acquire));
    }

    Node* next_ptr(int lvl) const {
      return unmark(next[lvl].load(std::memory_order_acquire));
    }
    bool marked_at(int lvl) const {
      return is_marked(next[lvl].load(std::memory_order_acquire));
    }
  };

  static Node* unmark(std::uintptr_t bits) {
    return reinterpret_cast<Node*>(bits & ~std::uintptr_t{1});
  }
  static bool is_marked(std::uintptr_t bits) { return (bits & 1) != 0; }
  static std::uintptr_t make_bits(Node* ptr, bool marked) {
    return reinterpret_cast<std::uintptr_t>(ptr) | (marked ? 1u : 0u);
  }

  explicit LfSkipList(int max_height) : max_height_(max_height) {
    assert(max_height >= 1 && max_height <= kMaxLevels);
    head_ = alloc_node(0, 0, max_height, nullptr);
    for (int i = 0; i < max_height; ++i) {
      head_->next[i].store(make_bits(nullptr, false), std::memory_order_relaxed);
    }
  }

  ~LfSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = unmark(n->next[0].load(std::memory_order_relaxed));
      free_node(n);
      n = nx;
    }
    Node* r = retired_.load(std::memory_order_relaxed);
    while (r != nullptr) {
      Node* nx = r->retire_next.load(std::memory_order_relaxed);
      free_node(r);
      r = nx;
    }
  }

  LfSkipList(const LfSkipList&) = delete;
  LfSkipList& operator=(const LfSkipList&) = delete;

  int max_height() const { return max_height_; }
  Node* head() const { return head_; }

  /// Lock-free find with helping: locates the window (preds[l], succs[l])
  /// for `key` at every level, snipping marked nodes along the way. Returns
  /// true iff an unmarked node with `key` is present at the bottom level.
  /// preds/succs must have max_height() slots. The head sentinel may appear
  /// as a pred; succs may be null (tail).
  bool find(Key key, Node** preds, Node** succs) {
    mem::EbrGuard guard;
  retry:
    while (true) {
      Node* pred = head_;
      for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
        Node* curr = unmark(pred->next[lvl].load(std::memory_order_acquire));
        while (true) {
          if (curr == nullptr) break;
          std::uintptr_t succ_bits = curr->next[lvl].load(std::memory_order_acquire);
          // One-ahead prefetch: pull the successor's line while this node's
          // key compare (and any helping) resolves.
          mem::prefetch_read(unmark(succ_bits));
          while (is_marked(succ_bits)) {
            // curr is logically deleted at lvl: snip it out of pred's chain.
            std::uintptr_t expected = make_bits(curr, false);
            if (!pred->next[lvl].compare_exchange_strong(
                    expected, make_bits(unmark(succ_bits), false),
                    std::memory_order_acq_rel, std::memory_order_acquire)) {
              goto retry;
            }
            curr = unmark(pred->next[lvl].load(std::memory_order_acquire));
            if (curr == nullptr) break;
            succ_bits = curr->next[lvl].load(std::memory_order_acquire);
          }
          if (curr == nullptr) break;
          if (curr->key < key) {
            pred = curr;
            curr = unmark(succ_bits);
          } else {
            break;
          }
        }
        preds[lvl] = pred;
        succs[lvl] = curr;
        // Level-descent prefetch: pred's line is hot, the next level's first
        // successor usually is not yet.
        if (lvl > 0) {
          mem::prefetch_read(
              unmark(pred->next[lvl - 1].load(std::memory_order_relaxed)));
        }
      }
      return succs[0] != nullptr && succs[0]->key == key;
    }
  }

  /// Wait-free lookup (no helping): returns the node for `key` if present
  /// and not marked at the bottom level, else null.
  Node* get_node(Key key) const {
    mem::EbrGuard guard;
    Node* pred = head_;
    Node* curr = nullptr;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      curr = unmark(pred->next[lvl].load(std::memory_order_acquire));
      while (curr != nullptr) {
        std::uintptr_t succ_bits = curr->next[lvl].load(std::memory_order_acquire);
        mem::prefetch_read(unmark(succ_bits));
        if (is_marked(succ_bits)) {
          curr = unmark(succ_bits);  // skip logically deleted node
          continue;
        }
        if (curr->key < key) {
          pred = curr;
          curr = unmark(succ_bits);
          continue;
        }
        break;
      }
      if (curr != nullptr && curr->key == key) {
        return curr->marked_at(0) ? nullptr : curr;
      }
    }
    return nullptr;
  }

  bool get(Key key, Value& out) const {
    mem::EbrGuard guard;  // spans the value read after get_node returns
    const Node* n = get_node(key);
    if (n == nullptr) return false;
    out = n->value_now();
    return true;
  }

  bool contains(Key key) const { return get_node(key) != nullptr; }

  /// Bottom-level range scan: descends to the first unmarked node with
  /// key >= start, then walks the level-0 chain with one-ahead prefetch.
  /// Same traversal contract as get(): wait-free, EBR-pinned.
  std::size_t scan(Key start, std::size_t count, ScanEntry* out) const {
    if (count == 0) return 0;
    mem::EbrGuard guard;
    Node* pred = head_;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      Node* curr = unmark(pred->next[lvl].load(std::memory_order_acquire));
      while (curr != nullptr) {
        std::uintptr_t succ_bits =
            curr->next[lvl].load(std::memory_order_acquire);
        mem::prefetch_read(unmark(succ_bits));
        if (is_marked(succ_bits) || curr->key < start) {
          if (!is_marked(succ_bits)) pred = curr;
          curr = unmark(succ_bits);
          continue;
        }
        break;
      }
    }
    std::size_t filled = 0;
    Node* curr = unmark(pred->next[0].load(std::memory_order_acquire));
    while (curr != nullptr && filled < count) {
      const std::uintptr_t succ_bits =
          curr->next[0].load(std::memory_order_acquire);
      mem::prefetch_read(unmark(succ_bits));
      if (!is_marked(succ_bits) && curr->key >= start) {
        out[filled].key = curr->key;
        out[filled].value = curr->value_now();
        ++filled;
      }
      curr = unmark(succ_bits);
    }
    return filled;
  }

  /// Allocates a node that is not yet linked, for insert_node(). This is the
  /// host-first allocation of Listing 1 (FatSkipList::make_entry is the
  /// hybrid skiplist's copy). Unlinked nodes are released with
  /// free_unlinked().
  Node* make_node(Key key, Value value, int height, void* payload = nullptr) {
    assert(height >= 1 && height <= max_height_);
    return alloc_node(key, value, height, payload);
  }

  /// Releases a node that never became reachable (no grace period needed).
  void free_unlinked(Node* n) { free_node(n); }

  /// Inserts (key, value) with a tower of `height` levels; `payload` is an
  /// opaque per-node pointer fixed before the node becomes reachable (the
  /// hybrid skiplist stores the NMP counterpart here). Fails if present.
  bool insert(Key key, Value value, int height, void* payload = nullptr) {
    Node* node = make_node(key, value, height, payload);
    if (insert_node(node)) return true;
    free_node(node);
    return false;
  }

  /// Links a pre-allocated node. Fails (without freeing `node`) if the key
  /// is already present.
  bool insert_node(Node* node) {
    mem::EbrGuard guard;
    const Key key = node->key;
    const int height = node->height;
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    while (true) {
      if (find(key, preds, succs)) {
        return false;
      }
      for (int lvl = 0; lvl < height; ++lvl) {
        node->next[lvl].store(make_bits(succs[lvl], false),
                              std::memory_order_relaxed);
      }
      // Linearization: link at the bottom level.
      std::uintptr_t expected = make_bits(succs[0], false);
      if (!preds[0]->next[0].compare_exchange_strong(
              expected, make_bits(node, false), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        continue;  // window moved; retry from find
      }
      // Link upper levels; helping removals may have marked us meanwhile.
      for (int lvl = 1; lvl < height; ++lvl) {
        while (true) {
          std::uintptr_t own_bits = node->next[lvl].load(std::memory_order_acquire);
          if (is_marked(own_bits)) return true;  // concurrently removed; done
          Node* succ = succs[lvl];
          if (unmark(own_bits) != succ) {
            if (!node->next[lvl].compare_exchange_strong(
                    own_bits, make_bits(succ, false), std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
              continue;  // someone marked us or changed our pointer; recheck
            }
          }
          std::uintptr_t exp = make_bits(succ, false);
          if (preds[lvl]->next[lvl].compare_exchange_strong(
                  exp, make_bits(node, false), std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            break;
          }
          // Window moved at this level: recompute and try again. If the node
          // vanished (concurrent remove), find() snips and we stop linking.
          if (!find(key, preds, succs) || succs[0] != node) return true;
        }
      }
      return true;
    }
  }

  /// Updates the value for `key` in place; fails if absent.
  bool update(Key key, Value value) {
    mem::EbrGuard guard;  // spans the store after get_node returns
    Node* n = get_node(key);
    if (n == nullptr) return false;
    n->value.store(pack_value(0, value), std::memory_order_release);
    return true;
  }

  /// Versioned value write used by the hybrid skiplist: only installs
  /// (version, value) if the node currently holds an older version, so host
  /// mirrors of NMP values converge regardless of the order in which host
  /// threads complete their update callbacks.
  static void update_versioned(Node* n, std::uint32_t version, Value value) {
    std::uint64_t cur = n->value.load(std::memory_order_acquire);
    const std::uint64_t desired = pack_value(version, value);
    while (unpack_version(cur) < version) {
      if (n->value.compare_exchange_weak(cur, desired, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return;
      }
    }
  }

  /// Removes `key`. The thread whose CAS marks the bottom level wins; losers
  /// (and absent keys) return false.
  bool remove(Key key) {
    mem::EbrGuard guard;
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    while (true) {
      if (!find(key, preds, succs)) return false;
      Node* victim = succs[0];
      // Mark upper levels top-down (removals proceed top-to-bottom).
      for (int lvl = victim->height - 1; lvl >= 1; --lvl) {
        std::uintptr_t bits = victim->next[lvl].load(std::memory_order_acquire);
        while (!is_marked(bits)) {
          victim->next[lvl].compare_exchange_weak(bits, bits | 1,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire);
        }
      }
      // Bottom level decides the winner (linearization point of removal).
      std::uintptr_t bits = victim->next[0].load(std::memory_order_acquire);
      while (true) {
        if (is_marked(bits)) return false;  // somebody else won
        if (victim->next[0].compare_exchange_strong(bits, bits | 1,
                                                    std::memory_order_acq_rel,
                                                    std::memory_order_acquire)) {
          (void)find(key, preds, succs);  // snip victim everywhere
          retire(victim);
          maybe_reclaim();
          return true;
        }
      }
    }
  }

  /// Number of unmarked nodes at the bottom level. O(n); quiescent use only.
  std::size_t size() const {
    std::size_t n = 0;
    for (Node* c = unmark(head_->next[0].load(std::memory_order_acquire));
         c != nullptr; c = unmark(c->next[0].load(std::memory_order_acquire))) {
      if (!c->marked_at(0)) ++n;
    }
    return n;
  }

  /// Structural check (quiescent use only): keys strictly ascend per level
  /// and every node linked at level i is linked at level i-1.
  bool validate() const {
    for (int lvl = 0; lvl < max_height_; ++lvl) {
      Key prev = 0;
      bool first = true;
      for (Node* n = unmark(head_->next[lvl].load()); n != nullptr;
           n = unmark(n->next[lvl].load())) {
        if (n->marked_at(lvl)) continue;
        if (!first && n->key <= prev) return false;
        first = false;
        prev = n->key;
        if (lvl > 0) {
          bool seen = false;
          for (Node* m = unmark(head_->next[lvl - 1].load()); m != nullptr;
               m = unmark(m->next[lvl - 1].load())) {
            if (m == n) {
              seen = true;
              break;
            }
          }
          if (!seen) return false;
        }
      }
    }
    return true;
  }

  static constexpr int kMaxLevels = 32;

  /// Retired towers currently awaiting their grace period (approximate under
  /// concurrency; exact when quiescent). Bounded under churn: remove()
  /// drains eligible towers back into the pool every kDrainInterval retires.
  std::size_t retired_count() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

  /// Drains every retired tower whose EBR grace period has elapsed into the
  /// pool freelists; advances the epoch first so steady-state churn makes
  /// progress. Safe to call from any thread (single drainer at a time;
  /// losers return 0). Returns the number of towers recycled.
  std::size_t reclaim_retired() {
    if (draining_.exchange(true, std::memory_order_acquire)) return 0;
    mem::Ebr::try_advance();
    Node* list = retired_.exchange(nullptr, std::memory_order_acq_rel);
    Node* keep_head = nullptr;
    Node* keep_tail = nullptr;
    std::size_t freed = 0;
    while (list != nullptr) {
      Node* nx = list->retire_next.load(std::memory_order_relaxed);
      if (mem::Ebr::safe(list->retire_epoch)) {
        free_node(list);
        ++freed;
      } else {
        list->retire_next.store(keep_head, std::memory_order_relaxed);
        keep_head = list;
        if (keep_tail == nullptr) keep_tail = list;
      }
      list = nx;
    }
    if (keep_head != nullptr) {
      Node* h = retired_.load(std::memory_order_relaxed);
      do {
        keep_tail->retire_next.store(h, std::memory_order_relaxed);
      } while (!retired_.compare_exchange_weak(h, keep_head,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
    }
    retired_count_.fetch_sub(freed, std::memory_order_relaxed);
    draining_.store(false, std::memory_order_release);
    return freed;
  }

  /// The backing pool (test/introspection hook).
  mem::NodePool& pool() { return pool_; }

 private:
  static std::size_t node_bytes(int height) {
    return sizeof(Node) + static_cast<std::size_t>(height - 1) *
                              sizeof(std::atomic<std::uintptr_t>);
  }

  Node* alloc_node(Key key, Value value, int height, void* payload) {
    void* raw = pool_.allocate(node_bytes(height));
    Node* n = static_cast<Node*>(raw);
    n->key = key;
    new (&n->value) std::atomic<std::uint64_t>(pack_value(0, value));
    n->height = static_cast<std::uint16_t>(height);
    n->payload = payload;
    new (&n->retire_next) std::atomic<Node*>(nullptr);
    n->retire_epoch = 0;
    for (int i = 0; i < height; ++i) {
      new (&n->next[i]) std::atomic<std::uintptr_t>(0);
    }
    return n;
  }

  void free_node(Node* n) { pool_.deallocate(n, node_bytes(n->height)); }

  void retire(Node* n) {
    n->retire_epoch = mem::Ebr::current();
    retired_count_.fetch_add(1, std::memory_order_relaxed);
    Node* head = retired_.load(std::memory_order_relaxed);
    do {
      n->retire_next.store(head, std::memory_order_relaxed);
    } while (!retired_.compare_exchange_weak(head, n, std::memory_order_release,
                                             std::memory_order_relaxed));
  }

  /// Amortized reclamation: one drain attempt per kDrainInterval retires.
  void maybe_reclaim() {
    if (retire_ticks_.fetch_add(1, std::memory_order_relaxed) %
            kDrainInterval ==
        kDrainInterval - 1) {
      (void)reclaim_retired();
    }
  }

  static constexpr std::uint32_t kDrainInterval = 32;

  mem::NodePool pool_;  // declared first: destroyed after the node walks
  int max_height_;
  Node* head_;
  std::atomic<Node*> retired_{nullptr};
  std::atomic<std::size_t> retired_count_{0};
  std::atomic<std::uint32_t> retire_ticks_{0};
  std::atomic<bool> draining_{false};
};

}  // namespace hybrids::ds
