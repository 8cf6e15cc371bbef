//===- smt/Blast.h - term -> CNF bit-blasting -------------------*- C++ -*-===//
///
/// \file
/// Tseitin bit-blasting of bool/BV32 terms into a SatSolver: ripple-carry
/// adders, shift-add multipliers (with 64-bit products for the signed
/// multiplication-overflow predicate), barrel shifters for symbolic shift
/// amounts, and a restoring divider for symbolic divisors. Gates are
/// structurally hashed so shared subterms blast once.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SMT_BLAST_H
#define LV_SMT_BLAST_H

#include "smt/Sat.h"
#include "support/Cancel.h"
#include "smt/Term.h"

#include <array>
#include <cstring>
#include <deque>
#include <vector>

namespace lv {
namespace smt {

/// Exact gate signature: three full 32-bit operand fields. A mux stores
/// (Sel, T, E); a two-input gate stores (A, B, op tag), where the tags
/// have bit 31 set and so never equal a literal code (Lit::X < 2^31).
/// Distinct gates therefore never share a key at any variable count.
/// All-zero is the empty-slot marker: no gate has it (a mux with T == E
/// folds before reaching the table).
struct GateKey {
  uint32_t A = 0, B = 0, C = 0;

  static constexpr uint32_t AndTag = 0x80000001u;
  static constexpr uint32_t XorTag = 0x80000002u;

  static GateKey gate2(uint32_t Tag, Lit A, Lit B) {
    return {static_cast<uint32_t>(A.X), static_cast<uint32_t>(B.X), Tag};
  }
  static GateKey mux(Lit Sel, Lit T, Lit E) {
    return {static_cast<uint32_t>(Sel.X), static_cast<uint32_t>(T.X),
            static_cast<uint32_t>(E.X)};
  }

  bool empty() const { return (A | B | C) == 0; }
  bool operator==(const GateKey &O) const {
    return A == O.A && B == O.B && C == O.C;
  }
};

/// Structural-hash gate memo: open addressing over one flat bucket
/// vector, so a fork is a single flat copy instead of a node-based
/// hash-map rebuild. A bucket is four slots in one 64-byte line; a lookup
/// scans its home bucket, then the following ones, until it meets the key
/// or an empty slot (slots fill in probe order and are never removed, so
/// an empty slot ends every chain through it). Every key goes through a
/// full 64-bit mixer before masking: gate keys are highly structured (a
/// word's gates share operands), and masking raw key bits would pile
/// every gate that shares its masked field into one probe run. Probe
/// order decides only where a key lives, never whether it is found, so it
/// cannot reach the CNF.
class GateTable {
public:
  GateTable() : Buckets(1024 / BucketSlots) {}

  bool find(const GateKey &Key, Lit &Out) const {
    size_t Mask = Buckets.size() - 1;
    ++Lookups;
    for (size_t I = hashOf(Key) & Mask;; I = (I + 1) & Mask) {
      ++Probes;
      for (const Slot &S : Buckets[I].Slots) {
        if (S.Key == Key) {
          Out = S.Val;
          return true;
        }
        if (S.Key.empty())
          return false;
      }
    }
  }

  /// Inserts a key known to be absent.
  void insert(const GateKey &Key, Lit Val) {
    if (Count * 10 >= capacity() * 7)
      grow();
    ++Lookups;
    Probes += place(Key, Val);
    ++Count;
  }

  size_t size() const { return Count; }
  size_t capacity() const { return Buckets.size() * BucketSlots; }
  /// find()/insert() calls and the buckets they read (grow() rehashing is
  /// not counted); Probes / Lookups is the mean number of 64-byte lines a
  /// lookup touches.
  uint64_t lookups() const { return Lookups; }
  uint64_t probes() const { return Probes; }

private:
  static constexpr size_t BucketSlots = 4;
  struct Slot {
    GateKey Key;
    Lit Val;
  };
  struct alignas(64) Bucket {
    Slot Slots[BucketSlots];
  };

  /// murmur3's fmix64 finalizer over the key folded to 64 bits (the
  /// multiply spreads C across all 64 bits before the xor).
  static uint64_t hashOf(const GateKey &K) {
    uint64_t H = ((static_cast<uint64_t>(K.A) << 32) | K.B) ^
                 (static_cast<uint64_t>(K.C) * 0x9E3779B97F4A7C15ULL);
    H ^= H >> 33;
    H *= 0xFF51AFD7ED558CCDULL;
    H ^= H >> 33;
    H *= 0xC4CEB9FE1A85EC53ULL;
    H ^= H >> 33;
    return H;
  }

  /// Puts \p Key in the first empty slot of its chain; returns the number
  /// of buckets read.
  uint64_t place(const GateKey &Key, Lit Val) {
    size_t Mask = Buckets.size() - 1;
    for (size_t I = hashOf(Key) & Mask, N = 1;; I = (I + 1) & Mask, ++N)
      for (Slot &S : Buckets[I].Slots)
        if (S.Key.empty()) {
          S = Slot{Key, Val};
          return N;
        }
  }

  void grow() {
    std::vector<Bucket> Old = std::move(Buckets);
    Buckets.assign(Old.size() * 2, Bucket());
    for (const Bucket &B : Old)
      for (const Slot &S : B.Slots)
        if (!S.Key.empty())
          place(S.Key, S.Val);
  }

  std::vector<Bucket> Buckets;
  size_t Count = 0;
  mutable uint64_t Lookups = 0;
  mutable uint64_t Probes = 0;
};

/// Blasts terms into CNF over a SatSolver. The blaster is persistent: it
/// memoizes per TermId against a long-lived TermTable, so a single instance
/// shared across many queries (see IncrementalSolver) blasts each shared
/// subterm exactly once.
class BitBlaster {
public:
  using Word = std::vector<Lit>;          ///< Working word, LSB first.
  using PackedWord = std::array<Lit, 32>; ///< Interned 32-bit result.

  BitBlaster(const TermTable &TT, SatSolver &S);

  /// Fork: copies every memo (bool/BV/gate caches, pool, seen vars) but
  /// binds the copy to \p NewS — which must be a copy of the original's
  /// solver, so all cached literals stay valid. Together with SatSolver's
  /// copy constructor this clones a blasted context in O(state) flat
  /// copies, without re-blasting anything.
  BitBlaster(const BitBlaster &O, SatSolver &NewS)
      : TT(O.TT), S(NewS), TrueLit(O.TrueLit), BoolCache(O.BoolCache),
        BvPool(O.BvPool), BvCache(O.BvCache), GateCache(O.GateCache),
        VarsSeen(O.VarsSeen), VarOwner(O.VarOwner), CurOwner(O.CurOwner),
        CT(O.CT) {}

  /// Re-forks in place: like the fork constructor, but reuses this
  /// instance's existing buffer capacity (repeated forking stays pure
  /// memcpy, no allocation churn). The bound solver is unchanged — assign
  /// it from the source's solver alongside this call.
  void assignFrom(const BitBlaster &O) {
    TrueLit = O.TrueLit;
    BoolCache = O.BoolCache;
    BvPool = O.BvPool;
    BvCache = O.BvCache;
    GateCache = O.GateCache;
    VarsSeen = O.VarsSeen;
    VarOwner = O.VarOwner;
    CurOwner = O.CurOwner;
    CT = O.CT;
  }

  /// Blasts a bool term; the returned literal is equivalent to the term.
  Lit blastBool(TermId Id);

  /// Blasts a BV term into 32 literals (LSB first). The reference points
  /// into a stable-address pool (deque): it stays valid across later
  /// blasts, so cache hits cost nothing instead of a 32-entry copy.
  const PackedWord &blastBv(TermId Id);

  /// After a Sat result, reads back the model value of a Var term that was
  /// reachable from the blasted query.
  bool modelOfVar(TermId Id, uint32_t &Out) const;
  bool modelOfBVar(TermId Id, bool &Out) const;

  /// Terms of kind Var/BVar encountered during blasting (for model dumps).
  const std::vector<TermId> &seenVars() const { return VarsSeen; }

  /// The structural-hash gate memo (size and probe statistics).
  const GateTable &gateTable() const { return GateCache; }

  /// Owner term of solver variable \p V: the term whose blast created it
  /// (input bits belong to their Var/BVar term, internal gate variables
  /// to the term being blasted when they were introduced). NoTerm for
  /// vars not created by this blaster (the constant-true var). A gate
  /// reused across terms via the GateTable keeps its first owner, so a
  /// later query whose encoding shares it may see the gate as
  /// out-of-cone — that only narrows the projection (the lift phase
  /// keeps verdicts sound); in practice shared gates almost always come
  /// from shared (hash-consed) subterms, which are reachable from every
  /// query that uses them.
  TermId varOwner(Var V) const {
    return static_cast<size_t>(V) < VarOwner.size()
               ? VarOwner[static_cast<size_t>(V)]
               : NoTerm;
  }
  int numOwnedVars() const { return static_cast<int>(VarOwner.size()); }

  /// After a cone-projected solve: does any bit of var-term \p Id lie in
  /// the query cone? Used to restrict the SAT certificate to variables
  /// the query actually constrains.
  bool varInLastCone(TermId Id, const SatSolver &Solver) const {
    if (const PackedWord *W = bvCached(Id)) {
      for (const Lit &L : *W)
        if (Solver.inLastCone(L.var()))
          return true;
      return false;
    }
    Lit L;
    if (boolCached(Id, L))
      return Solver.inLastCone(L.var());
    return false;
  }

private:
  const TermTable &TT;
  SatSolver &S;
  Lit TrueLit;

  // Term-level caches are dense vectors indexed by TermId (ids are dense),
  // so forking them is a flat copy instead of a hash-map rebuild; the BV
  // pool holds fixed-size packed words (no per-entry heap allocation).
  std::vector<Lit> BoolCache;   ///< X == -2 means "not blasted yet".
  std::deque<PackedWord> BvPool; ///< Stable addresses across growth.
  std::vector<int32_t> BvCache; ///< TermId -> BvPool index, -1 when unset.
  GateTable GateCache;
  std::vector<TermId> VarsSeen;
  /// Per solver var: the term whose blast created it (see varOwner()).
  std::vector<TermId> VarOwner;
  /// Term currently being built (set on the cache-miss path of blastBool
  /// and blastBv; operand recursion finishes before a term's own gates
  /// are constructed, so the save/restore discipline attributes every
  /// fresh variable to the right term).
  TermId CurOwner = NoTerm;
  /// Captured at construction and preserved across fork()/assignFrom so
  /// blasters running on tv worker threads still honour the owning
  /// task's deadline. Null when no CancelScope is active.
  const support::CancelToken *CT = support::currentCancelToken();
  uint64_t BlastSteps = 0; ///< Fresh-blast tick for periodic cancel checks.

  void checkCancelTick() {
    if ((++BlastSteps & 0xFFF) == 0 && CT && CT->expired())
      throw support::CancelledError("smt.blast");
  }

  bool boolCached(TermId Id, Lit &Out) const {
    size_t I = static_cast<size_t>(Id);
    if (I < BoolCache.size() && BoolCache[I].X >= 0) {
      Out = BoolCache[I];
      return true;
    }
    return false;
  }
  const PackedWord *bvCached(TermId Id) const {
    size_t I = static_cast<size_t>(Id);
    if (I < BvCache.size() && BvCache[I] >= 0)
      return &BvPool[static_cast<size_t>(BvCache[I])];
    return nullptr;
  }
  const PackedWord &internBv(TermId Id, const Word &W) {
    PackedWord P;
    std::memcpy(P.data(), W.data(), sizeof(PackedWord));
    BvPool.push_back(P);
    size_t I = static_cast<size_t>(Id);
    if (I >= BvCache.size())
      BvCache.resize(I + 1, -1);
    BvCache[I] = static_cast<int32_t>(BvPool.size()) - 1;
    return BvPool.back();
  }
  Lit internBool(TermId Id, Lit L) {
    size_t I = static_cast<size_t>(Id);
    if (I >= BoolCache.size())
      BoolCache.resize(I + 1, Lit());
    BoolCache[I] = L;
    return L;
  }

  Lit falseLit() const { return ~TrueLit; }
  Lit constLit(bool B) const { return B ? TrueLit : ~TrueLit; }
  bool isConstLit(Lit L, bool &B) const {
    if (L == TrueLit) {
      B = true;
      return true;
    }
    if (L == ~TrueLit) {
      B = false;
      return true;
    }
    return false;
  }

  Lit freshLit() {
    Var V = S.newVar();
    if (static_cast<size_t>(V) >= VarOwner.size())
      VarOwner.resize(static_cast<size_t>(V) + 1, NoTerm);
    VarOwner[static_cast<size_t>(V)] = CurOwner;
    return Lit(V, false);
  }

  // Simplifying gate constructors.
  Lit gAnd(Lit A, Lit B);
  Lit gOr(Lit A, Lit B) { return ~gAnd(~A, ~B); }
  Lit gXor(Lit A, Lit B);
  Lit gXnor(Lit A, Lit B) { return ~gXor(A, B); }
  Lit gMux(Lit Sel, Lit T, Lit E);

  /// Read-only view over a word of literals; lets the helpers consume
  /// working vectors and interned packed words alike without copies.
  struct WordView {
    const Lit *Ptr;
    size_t Len;
    WordView(const Word &W) : Ptr(W.data()), Len(W.size()) {}
    WordView(const PackedWord &W) : Ptr(W.data()), Len(W.size()) {}
    const Lit &operator[](size_t I) const { return Ptr[I]; }
    size_t size() const { return Len; }
    const Lit &back() const { return Ptr[Len - 1]; }
  };

  // Word-level helpers over literal words (LSB first).
  Word wConst(uint32_t V, int Width = 32);
  Word wAdd(WordView A, WordView B, Lit CarryIn, Lit *CarryOut,
            Lit *CarryPrev);
  Word wNeg(WordView A);
  Word wMux(Lit Sel, WordView T, WordView E);
  Lit wUlt(WordView A, WordView B);
  Lit wEq(WordView A, WordView B);
  Word wMul(WordView A, WordView B, int OutWidth);
  void wUDivRem(WordView A, WordView B, Word &Q, Word &R);
  Word wAbs(WordView A);
};

} // namespace smt
} // namespace lv

#endif // LV_SMT_BLAST_H
