// PlanCache: a persistent cache of fully-compiled physical plans for the
// executor.
//
// A CompiledPlan freezes everything the executor decides or resolves before
// the first row moves: the chosen join order (including every cost-based
// ordering decision), the checks each binding step evaluates per candidate
// row with literals resolved to raw payloads / dictionary codes,
// pre-computed dictionary-code translation tables for cross-column string
// joins, hash-index bindings, and the semi-join column-drop schedule. The
// executor compiles a plan first and then runs it through one interpreter,
// so a cache hit skips exactly the compile — query validation, table
// resolution, cardinality estimation and check compilation — the per-query
// planning cost the miner pays thousands of times for structurally
// identical support queries, and the per-access explain loop pays once per
// served request.
//
// Staleness is judged against the querying snapshot (Database::Snapshot).
// Tables only grow (storage/table.h), so a plan built on the snapshot's
// catalog generation is in one of two states:
//  - current: every referenced table's recorded watermark covers the
//    snapshot's — replay as-is. A plan recorded PAST the snapshot's
//    watermark is current too: appends are monotone and every probe/scan
//    clamps to the snapshot bound at replay time, so a newer plan
//    evaluates older snapshots exactly.
//  - appended: the snapshot sees rows past at least one recorded
//    watermark. The plan is *re-bound*, not discarded: index bindings are
//    refreshed (which extends the indexes past the watermark),
//    dictionary-code translation tables are extended for newly minted
//    codes, and string literals that were absent from a dictionary at
//    compile time are re-resolved. Counted as a hit plus a rebind; the
//    frozen join order is kept (appends rarely change which order is best,
//    and keeping it is what makes the streaming serving loop cheap).
// A plan built on another catalog generation is dropped on lookup (an
// invalidation): a CreateTable/AddTable/DropTable since may have freed a
// Table it points to, so it is never dereferenced. Lookups are safe under
// the single concurrent appending writer (the rebind reads only published
// state); catalog changes still require external serialization against all
// readers.
//
// Size: the cache is unbounded and never evicts; a stale entry is dropped
// on lookup. Its keys are bounded by its users' query shapes: an engine's
// template registry (a server answers no ad-hoc query), or one mining run's
// candidate paths. resident_bytes() reports the approximate footprint of
// the resident plans (CompiledPlan::ApproxBytes plus the key).
//
// Thread safety: Lookup/Insert take the cache's writer lock (even a lookup
// mutates the hit counters), the read-only stats/size accessors take the
// shared (reader) lock, and cached plans are immutable shared_ptrs, so
// concurrent executors (e.g. ExplainAll's template fan-out) can share one
// cache. The discipline is compiler-checked: every mutable member is
// EBA_GUARDED_BY(mu_) and clang's -Wthread-safety rejects any unlocked
// access path.

#ifndef EBA_QUERY_PLAN_CACHE_H_
#define EBA_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "query/expr.h"
#include "storage/database.h"
#include "storage/index.h"

namespace eba {

/// One condition a binding step evaluates per candidate row: a chain
/// condition or decoration between two attributes, or an attribute against
/// a literal resolved at compile time. The compiler attaches every
/// condition to the step that binds the last tuple variable it references,
/// so each check involves the variable that step binds. Slots refer to the
/// frame entering the step; the slot equal to that frame's slot count names
/// the candidate row the step is about to bind (for the seed, whose
/// entering frame is empty, that is slot 0).
struct PlanCheck {
  /// Comparison dispatch resolved at compile time.
  enum class Kind : uint8_t {
    kInt64,        // same-type integer-like payloads compare as int64
    kStringCode,   // equality of dictionary codes (one column, or a literal)
    kString,       // dictionary strings compare
    kDouble,       // raw double comparison
    kBoxed,        // cross-type pairs fall back to boxed EvalCmp
    kNeverMatches  // NULL literal or string absent from the dictionary
  };

  Kind kind = Kind::kBoxed;
  CmpOp op = CmpOp::kEq;
  int lhs_slot = -1;
  const Column* lhs_col = nullptr;
  /// The right-hand attribute; rhs_col is null for a literal check.
  int rhs_slot = -1;
  const Column* rhs_col = nullptr;

  // Literal checks.
  int64_t lit_int = 0;
  double lit_double = 0.0;
  std::string lit_string;
  Value lit_value;
  /// True for a string-equality literal that was absent from the dictionary
  /// at compile time (kind == kNeverMatches with lit_string holding the
  /// literal): appends can mint the code, so a rebind re-resolves it.
  bool lit_rebindable = false;
};

/// One frozen pipeline operation over the executor's row-id frame. Slot
/// numbers refer to the frame layout at the point the step applies; the
/// compiler tracks that layout as it emits steps, starting from the
/// kSeedRange step every plan begins with, so the slots are valid on every
/// run. There are no standalone filter steps: the seed and every join
/// check the conditions their binding completes and write only the rows
/// that pass.
struct PlanStep {
  enum class Kind : uint8_t {
    kJoin,  // hash-probe binding a new tuple variable
    kDrop,  // semi-join column drop (+ row-id tuple dedup)
    // First step: seed the empty frame at `new_var`'s rows. The seed range
    // is the executor's only restriction and a *runtime* input — the plan
    // freezes which variable is seeded, not the range, so one compiled plan
    // serves every append batch (and the whole log).
    kSeedRange
  };
  /// Probe dispatch resolved at compile time (kJoin).
  enum class ProbeKind : uint8_t {
    kInt64,             // integer-like payloads probe LookupInt64
    kStringSameColumn,  // shared dictionary: codes probe LookupCode directly
    kStringTranslated,  // codes route through translated_codes first
    kBoxed,             // doubles / mismatched kinds: boxed Lookup
  };

  Kind kind = Kind::kDrop;

  // kJoin (new_var also names kSeedRange's variable).
  int probe_slot = -1;
  const Column* probe_col = nullptr;
  const HashIndex* index = nullptr;
  int new_var = -1;
  /// Column index of `index` within table `new_var`, recorded so an
  /// append-rebind can re-request (and thereby extend) the index.
  int index_col = -1;
  ProbeKind probe_kind = ProbeKind::kBoxed;
  std::vector<int64_t> translated_codes;  // kStringTranslated only
  /// Build-side dictionary size when translated_codes was computed; growth
  /// means previously unresolvable probe codes may now translate.
  size_t build_dict_size = 0;
  std::vector<uint32_t> keep_slots;       // surviving pre-join slots, in order
  /// Gather the newly bound column. A semi-join step that does not keep it
  /// writes each input row at most once, at its first surviving match.
  bool keep_new = true;

  // kSeedRange / kJoin: the conditions this binding completes — chain
  // conditions first, then literals, then decorations.
  std::vector<PlanCheck> checks;

  // kDrop.
  std::vector<uint32_t> drop_keep_slots;  // slots that survive, in order
  bool dedup = false;
};

/// A fully-compiled physical plan: the frozen step pipeline plus everything
/// needed to revalidate it. Immutable once built (a run never mutates it; an
/// append-rebind produces a patched copy).
struct CompiledPlan {
  const Database* db = nullptr;
  /// Database::catalog_generation at build time. Table pointers are only
  /// dereferenced while the catalog is unchanged (map nodes are stable
  /// within a generation); any CreateTable/AddTable/DropTable invalidates
  /// the plan before a rebind could touch a freed Table.
  uint64_t catalog_generation = 0;
  std::vector<const Table*> tables;  // per tuple variable
  /// Table::append_watermark at build (or last rebind) time.
  std::vector<uint64_t> table_watermarks;

  std::vector<PlanStep> steps;

  /// Where a run records an ExecStats::JoinStep: after applying
  /// steps[after_step], i.e. once the binding step that applied the chain
  /// condition and its trailing drop have run. There is one per chain
  /// condition; one checked inside a binding step (rather than probed)
  /// reports is_filter and shares that step's point.
  struct StatsPoint {
    size_t after_step = 0;
    int condition_index = -1;
    bool is_filter = false;
    /// Cost-based prediction of the join's output rows per input row; a run
    /// reports it times the frame size entering the join as
    /// JoinStep::estimated_rows. -1 if the estimator was not consulted.
    double fanout = -1.0;
  };
  std::vector<StatsPoint> stats_points;

  /// The slot layout the compiler tracked, as the last step leaves it:
  /// final frame slot -> tuple variable.
  std::vector<int> final_vars;
  bool used_semi_join = false;

  /// True when the querying snapshot, on the plan's catalog generation,
  /// pins rows past the recorded watermark of a referenced table: the plan
  /// must be re-bound (RebindPlanForAppend) before it replays.
  bool NeedsRebind(const Database::Snapshot& snapshot) const;

  /// Approximate resident footprint (steps, checks, translation tables,
  /// slot lists, literals) for the cache's byte accounting.
  size_t ApproxBytes() const;
};

/// Re-binds `plan` after appends to its tables: refreshes index bindings
/// (extending each index past the watermark), extends dictionary-code
/// translation tables for newly minted probe codes (recomputing them when
/// the build-side dictionary grew), re-resolves rebindable string literals
/// in every step's checks, and stamps the current watermarks (read FIRST,
/// before any dictionary state — so the translation tables provably cover
/// every code reachable below the stamped watermarks even under a
/// concurrent writer). The frozen join order, slot layout and stats points
/// are untouched, so a run of the rebound plan over the old prefix is
/// byte-identical to the original.
/// Requires the plan's catalog generation to be the database's current
/// one (its Table pointers are alive).
std::shared_ptr<const CompiledPlan> RebindPlanForAppend(
    const CompiledPlan& plan);

class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // other-catalog entries dropped on lookup
    uint64_t rebinds = 0;        // entries re-bound for appends on lookup
  };

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` if it exists and was built against
  /// the snapshot's database at its catalog generation, re-binding it in
  /// place first (counted as a rebind) when the snapshot sees rows past its
  /// recorded watermarks; either way the lookup counts as a hit. An entry
  /// from another database or catalog generation is dropped (counted as an
  /// invalidation) and the lookup counts as a miss.
  std::shared_ptr<const CompiledPlan> Lookup(const std::string& key,
                                             const Database::Snapshot& snapshot)
      EBA_EXCLUDES(mu_);

  /// Inserts (or replaces) the plan for `key`.
  void Insert(const std::string& key, std::shared_ptr<const CompiledPlan> plan)
      EBA_EXCLUDES(mu_);

  Stats stats() const EBA_EXCLUDES(mu_);
  size_t size() const EBA_EXCLUDES(mu_);
  /// Approximate bytes across resident plans (per-entry ApproxBytes sums).
  size_t resident_bytes() const EBA_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    size_t bytes = 0;
  };

  mutable SharedMutex mu_;
  std::unordered_map<std::string, Entry> plans_ EBA_GUARDED_BY(mu_);
  size_t resident_bytes_ EBA_GUARDED_BY(mu_) = 0;
  Stats stats_ EBA_GUARDED_BY(mu_);
};

}  // namespace eba

#endif  // EBA_QUERY_PLAN_CACHE_H_
