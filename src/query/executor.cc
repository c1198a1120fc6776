#include "query/executor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <utility>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "query/optimizer.h"
#include "query/plan_cache.h"

namespace eba {

namespace {

// ===========================================================================
// Shared helpers.
// ===========================================================================

/// Raw typed comparison, mirroring Value's same-type ordering.
template <typename T>
bool RawCmp(const T& a, CmpOp op, const T& b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kGe:
      return a >= b;
    case CmpOp::kGt:
      return a > b;
  }
  return false;
}

/// Matches of `lid` below the snapshot bound in the index over `col`, using
/// the raw int64 probe when both sides are integer-like (the standard Lid
/// column) instead of routing a boxed Value through HashIndex::Lookup.
std::vector<uint32_t> LidMatches(const HashIndex& idx, const Column& col,
                                 const Value& lid, size_t bound) {
  if (col.IsIntLike() &&
      (lid.type() == DataType::kBool || lid.type() == DataType::kInt64 ||
       lid.type() == DataType::kTimestamp)) {
    const RowIdSpan span = idx.LookupInt64(lid.RawInt64()).ClampTo(bound);
    return std::vector<uint32_t>(span.begin(), span.end());
  }
  return idx.Lookup(lid, bound);
}

/// The table of `q`'s variable 0 when `lid_attr` names one of its columns.
StatusOr<const Table*> LidTable(const Database& db, const PathQuery& q,
                                QAttr lid_attr) {
  if (lid_attr.var != 0) {
    return Status::InvalidArgument("lid attribute must belong to variable 0");
  }
  if (q.vars.empty()) {
    return Status::InvalidArgument("query has no tuple variables");
  }
  EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(q.vars[0].table));
  if (lid_attr.col < 0 ||
      static_cast<size_t>(lid_attr.col) >= table->num_columns()) {
    return Status::InvalidArgument("lid attribute column out of range");
  }
  return table;
}

/// Every row of a table; clamped, like any seed range, to the snapshot
/// bound of its table when the run applies it.
constexpr RowRange kAllRows{0, std::numeric_limits<size_t>::max()};

// ===========================================================================
// The row-id frame.
// ===========================================================================

/// A struct-of-arrays intermediate: one row-id column per bound tuple
/// variable. Tuple i of the frame is (ids[0][i], ids[1][i], ...). Which
/// tuple variable a slot holds is fixed by the plan, not the frame: the
/// compiler tracks the slot layout as it emits steps and records where it
/// ends (CompiledPlan::final_vars). No boxed Value exists here.
struct Frame {
  std::vector<std::vector<uint32_t>> ids;  // slot -> row ids (equal lengths)

  size_t size() const { return ids.empty() ? 0 : ids[0].size(); }
};

/// Position of tuple variable `var` in the slot layout `vars`, or -1.
int SlotOf(const std::vector<int>& vars, int var) {
  for (size_t s = 0; s < vars.size(); ++s) {
    if (vars[s] == var) return static_cast<int>(s);
  }
  return -1;
}

std::vector<uint32_t> GatherU32(const std::vector<uint32_t>& src,
                                const std::vector<uint32_t>& sel) {
  std::vector<uint32_t> out(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) out[i] = src[sel[i]];
  return out;
}

/// Removes duplicate row-id tuples, keeping each first occurrence in frame
/// order (FirstOccurrences: no per-tuple allocation). The kept rows are
/// compacted in place, front to back, since every kept index is at or past
/// its destination. First-occurrence order is semantic, so this stays
/// serial.
void DedupFrame(Frame* f) {
  const std::vector<uint32_t> keep = FirstOccurrences(f->ids);
  if (keep.size() == f->size()) return;
  for (auto& col : f->ids) {
    for (size_t j = 0; j < keep.size(); ++j) col[j] = col[keep[j]];
    col.resize(keep.size());
  }
}

// ===========================================================================
// Compiled-plan step application. Each function interprets one frozen
// PlanStep against the frame; RunPlan, the plan interpreter, is their only
// caller.
// ===========================================================================

/// Compiles an attribute-attribute check: same-type integer-like columns
/// compare int64 payloads, strings compare dictionary codes (equality
/// within one column) or dictionary strings, doubles compare raw doubles;
/// any cross-type pair falls back to boxed EvalCmp, so every kind agrees
/// with EvalCmp on the boxed cells.
PlanCheck CompileAttrCheck(int lhs_slot, const Column* lc, CmpOp op,
                           int rhs_slot, const Column* rc) {
  PlanCheck c;
  c.op = op;
  c.lhs_slot = lhs_slot;
  c.lhs_col = lc;
  c.rhs_slot = rhs_slot;
  c.rhs_col = rc;
  if (lc->type() != rc->type()) {
    c.kind = PlanCheck::Kind::kBoxed;
  } else if (lc->IsIntLike()) {
    c.kind = PlanCheck::Kind::kInt64;
  } else if (lc->IsString()) {
    c.kind = op == CmpOp::kEq && lc == rc ? PlanCheck::Kind::kStringCode
                                          : PlanCheck::Kind::kString;
  } else if (lc->type() == DataType::kDouble) {
    c.kind = PlanCheck::Kind::kDouble;
  } else {
    c.kind = PlanCheck::Kind::kBoxed;
  }
  return c;
}

/// Compiles an attribute-literal check: the literal is resolved once at
/// plan time (raw int64 / dictionary code / string / double) instead of per
/// row per execution. Cross-type pairs fall back to boxed EvalCmp.
PlanCheck CompileLiteralCheck(int slot, const Column* col, CmpOp op,
                              const Value& rhs) {
  PlanCheck c;
  c.op = op;
  c.lhs_slot = slot;
  c.lhs_col = col;
  if (rhs.is_null()) {
    c.kind = PlanCheck::Kind::kNeverMatches;  // EvalCmp is false
  } else if (col->IsIntLike() && rhs.type() == col->type()) {
    c.kind = PlanCheck::Kind::kInt64;
    c.lit_int = rhs.RawInt64();
  } else if (col->IsString() && rhs.type() == DataType::kString) {
    if (op == CmpOp::kEq) {
      auto code = col->FindStringCode(rhs.AsString());
      if (code) {
        c.kind = PlanCheck::Kind::kStringCode;
        c.lit_int = *code;
      } else {
        // Literal not in the dictionary: no row can match — but appends may
        // mint the code later, so keep the literal for append-rebinds.
        c.kind = PlanCheck::Kind::kNeverMatches;
        c.lit_string = rhs.AsString();
        c.lit_rebindable = true;
      }
    } else {
      c.kind = PlanCheck::Kind::kString;
      c.lit_string = rhs.AsString();
    }
  } else if (col->type() == DataType::kDouble &&
             rhs.type() == DataType::kDouble) {
    c.kind = PlanCheck::Kind::kDouble;
    c.lit_double = rhs.AsDouble();
  } else {
    c.kind = PlanCheck::Kind::kBoxed;
    c.lit_value = rhs;
  }
  return c;
}

/// Evaluates a check the raw path does not take (kString, kDouble,
/// kBoxed) with its sides at rows `l` and `r` (a literal check ignores
/// `r`). NULL never matches, as in EvalCmp.
bool CheckHolds(const PlanCheck& c, uint32_t l, uint32_t r) {
  const Column& lc = *c.lhs_col;
  const Column* rc = c.rhs_col;
  if (c.kind == PlanCheck::Kind::kBoxed) {
    return rc != nullptr ? EvalCmp(lc.Get(l), c.op, rc->Get(r))
                         : EvalCmp(lc.Get(l), c.op, c.lit_value);
  }
  if (lc.IsNull(l) || (rc != nullptr && rc->IsNull(r))) return false;
  if (c.kind == PlanCheck::Kind::kString) {
    return rc != nullptr ? RawCmp(lc.StringAt(l), c.op, rc->StringAt(r))
                         : RawCmp(lc.StringAt(l), c.op, c.lit_string);
  }
  return RawCmp(lc.DoubleAt(l), c.op,
                rc != nullptr ? rc->DoubleAt(r) : c.lit_double);
}

/// One check of a seed or join step, bound for one run of the step to the
/// frame entering it and to raw column views. It lives on the stack of that
/// run, under the run's snapshot pin, and never in a CompiledPlan: cached
/// plans outlive snapshot pins, and the views do not.
struct BoundCheck {
  const PlanCheck* check;
  /// Frame column of each side, read at positions below the entering
  /// frame's size; unread (null) when that side is the candidate row. A
  /// literal check's right side repeats its left.
  const uint32_t* lhs_ids;
  const uint32_t* rhs_ids;
  bool lhs_is_cand;
  bool rhs_is_cand;
  /// kInt64 and kStringCode compare int64 payloads through the views
  /// (a string-code check is an equality, so RawCmp with its op agrees);
  /// the other kinds call CheckHolds.
  bool raw;
  bool literal;
  CmpOp op;
  int64_t lit;
  Column::Reader lhs;
  Column::Reader rhs;
};

/// Binds `checks` to the frame `in` entering the step (its slot count names
/// the candidate slot) and to read views of their columns.
std::vector<BoundCheck> BindChecks(const std::vector<PlanCheck>& checks,
                                   const Frame& in) {
  const size_t cand_slot = in.ids.size();
  std::vector<BoundCheck> bound;
  bound.reserve(checks.size());
  for (const PlanCheck& c : checks) {
    const bool literal = c.rhs_col == nullptr;
    const size_t ls = static_cast<size_t>(c.lhs_slot);
    const size_t rs = literal ? ls : static_cast<size_t>(c.rhs_slot);
    bound.push_back(BoundCheck{
        &c, ls == cand_slot ? nullptr : in.ids[ls].data(),
        rs == cand_slot ? nullptr : in.ids[rs].data(), ls == cand_slot,
        rs == cand_slot,
        c.kind == PlanCheck::Kind::kInt64 ||
            c.kind == PlanCheck::Kind::kStringCode,
        literal, c.op, c.lit_int, Column::Reader(*c.lhs_col),
        Column::Reader(literal ? *c.lhs_col : *c.rhs_col)});
  }
  return bound;
}

/// True when every bound check holds for position `i` of the entering
/// frame and the candidate row `cand`.
inline bool AllHold(const std::vector<BoundCheck>& checks, size_t i,
                    uint32_t cand) {
  for (const BoundCheck& c : checks) {
    const uint32_t l = c.lhs_is_cand ? cand : c.lhs_ids[i];
    const uint32_t r = c.rhs_is_cand ? cand : c.rhs_ids[i];
    if (!c.raw) {
      if (!CheckHolds(*c.check, l, r)) return false;
      continue;
    }
    if (c.lhs.IsNull(l)) return false;
    int64_t rhs = c.lit;
    if (!c.literal) {
      if (c.rhs.IsNull(r)) return false;
      rhs = c.rhs.Int64At(r);
    }
    if (!RawCmp(c.lhs.Int64At(l), c.op, rhs)) return false;
  }
  return true;
}

/// A step with a never-matching literal check binds no row at all.
bool NeverMatches(const std::vector<PlanCheck>& checks) {
  return std::any_of(checks.begin(), checks.end(), [](const PlanCheck& c) {
    return c.kind == PlanCheck::Kind::kNeverMatches;
  });
}

/// Applies a semi-join drop step: rebuilds the frame from the surviving
/// slots, then deduplicates the remaining row-id tuples.
void ApplyDropStep(Frame* f, const PlanStep& st) {
  if (st.drop_keep_slots.size() != f->ids.size()) {
    Frame next;
    next.ids.reserve(st.drop_keep_slots.size());
    for (uint32_t s : st.drop_keep_slots) {
      next.ids.push_back(std::move(f->ids[s]));
    }
    *f = std::move(next);
  }
  if (st.dedup) DedupFrame(f);
}

/// One hash-join step: probes the build side's index with raw payloads (or
/// pre-translated dictionary codes), checks every condition the binding
/// completes against each candidate match, and appends the row ids of the
/// survivors only — the accumulated tuple is never copied as boxed values,
/// only its uint32 columns are gathered through the selection vector. A
/// step that does not keep its new variable (semi-join) appends each input
/// row at most once, at its first surviving match.
void ExecuteJoinStep(Frame* f, const PlanStep& st, ExecStats* stats,
                     size_t build_bound) {
  const std::vector<uint32_t>& pids = f->ids[static_cast<size_t>(st.probe_slot)];
  const size_t n = NeverMatches(st.checks) ? 0 : f->size();
  const Column& probe_col = *st.probe_col;
  const Column::Reader probe(probe_col);
  const std::vector<BoundCheck> checks = BindChecks(st.checks, *f);
  const HashIndex& idx = *st.index;

  // Every probe clamps its match list to the build table's snapshot bound:
  // bucket row lists are ascending, so the clamp is one compare unless the
  // concurrent writer appended to the key past the pinned watermark, and
  // those rows never join.
  std::vector<uint32_t> sel;
  std::vector<uint32_t> new_ids;
  auto emit = [&](size_t i, RowIdSpan matches) {
    for (uint32_t m : matches) {
      if (!AllHold(checks, i, m)) continue;
      sel.push_back(static_cast<uint32_t>(i));
      if (!st.keep_new) return;
      new_ids.push_back(m);
    }
  };
  switch (st.probe_kind) {
    case PlanStep::ProbeKind::kInt64:
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = pids[i];
        if (probe.IsNull(r)) continue;
        emit(i, idx.LookupInt64(probe.Int64At(r)).ClampTo(build_bound));
      }
      break;
    case PlanStep::ProbeKind::kStringSameColumn:
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = pids[i];
        if (probe.IsNull(r)) continue;
        emit(i, idx.LookupCode(probe.Int64At(r)).ClampTo(build_bound));
      }
      break;
    case PlanStep::ProbeKind::kStringTranslated:
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = pids[i];
        if (probe.IsNull(r)) continue;
        const int64_t code =
            st.translated_codes[static_cast<size_t>(probe.Int64At(r))];
        if (code < 0) continue;
        emit(i, idx.LookupCode(code).ClampTo(build_bound));
      }
      break;
    case PlanStep::ProbeKind::kBoxed:
      // Doubles and mismatched column kinds: boxed probes through
      // HashIndex::Lookup (NULLs and cross-kind probes match nothing).
      for (size_t i = 0; i < n; ++i) {
        const std::vector<uint32_t> matches =
            idx.Lookup(probe_col.Get(pids[i]), build_bound);
        emit(i, RowIdSpan{matches.data(), matches.size()});
      }
      break;
  }

  Frame next;
  next.ids.reserve(st.keep_slots.size() + (st.keep_new ? 1 : 0));
  for (uint32_t s : st.keep_slots) {
    next.ids.push_back(GatherU32(f->ids[s], sel));
  }
  if (st.keep_new) next.ids.push_back(std::move(new_ids));

  stats->joins_executed++;
  stats->rows_emitted += next.size();
  stats->peak_intermediate = std::max(stats->peak_intermediate, next.size());
  *f = std::move(next);
}

/// Interprets one frozen step against the frame. `seed_range` is the rows
/// the kSeedRange step starts from. `var_bounds` holds the snapshot
/// watermark of each tuple variable's table — the other runtime input: the
/// same frozen plan runs correctly for any snapshot because every seed and
/// probe clamps to these bounds.
void ApplyStep(Frame* f, const PlanStep& st, ExecStats* stats,
               RowRange seed_range, const std::vector<size_t>& var_bounds) {
  switch (st.kind) {
    case PlanStep::Kind::kJoin:
      ExecuteJoinStep(f, st, stats,
                      var_bounds[static_cast<size_t>(st.new_var)]);
      break;
    case PlanStep::Kind::kDrop:
      ApplyDropStep(f, st);
      break;
    case PlanStep::Kind::kSeedRange: {
      // The (empty) frame becomes the seed range's rows of `new_var`'s
      // table that pass the seed's checks, never past the snapshot bound;
      // the join frontier grows outward from them.
      EBA_CHECK_MSG(f->ids.empty(), "kSeedRange needs an empty frame");
      const size_t end = std::min(
          seed_range.end, var_bounds[static_cast<size_t>(st.new_var)]);
      const size_t begin = std::min(seed_range.begin, end);
      std::vector<uint32_t> rows;
      if (st.checks.empty()) {
        rows.resize(end - begin);
        std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(begin));
      } else if (!NeverMatches(st.checks)) {
        // Every slot of a seed check is the candidate row.
        const std::vector<BoundCheck> checks = BindChecks(st.checks, *f);
        for (size_t r = begin; r < end; ++r) {
          const uint32_t row = static_cast<uint32_t>(r);
          if (AllHold(checks, 0, row)) rows.push_back(row);
        }
      }
      f->ids.push_back(std::move(rows));
      stats->peak_intermediate = std::max(stats->peak_intermediate, f->size());
      break;
    }
  }
}

// ===========================================================================
// Plan compiler: turns a PathQuery into a CompiledPlan — chosen join order,
// each binding step's checks with resolved literals, pre-translated
// dictionary codes, index bindings, and the semi-join drop schedule —
// without moving a row. Every condition is checked inside the step that
// binds the last variable it references, so there are no filter steps. It
// holds no frame, only the slot layout its emitted steps will produce. One
// instance per compile.
// ===========================================================================

class PlanCompiler {
 public:
  PlanCompiler(const Database::Snapshot& snapshot, const PathQuery& q,
               const std::vector<QAttr>& output_attrs, bool dedup_frontier)
      : snapshot_(snapshot),
        db_(snapshot.database()),
        q_(q),
        output_attrs_(output_attrs),
        dedup_frontier_(dedup_frontier),
        joins_(q.join_chain),
        extras_(q.extra_conditions),
        consts_(q.const_conditions) {}

  /// Compiles the pipeline seeded at `pivot_var`'s rows (variable 0 may
  /// then start unbound and be joined back to). The final slot layout holds
  /// every tuple variable referenced by the output attributes (plus,
  /// without `dedup_frontier`, every bound variable). Every error — a
  /// disconnected query, a non-equality chain join, an unapplied
  /// decoration — is returned here, before any step runs.
  StatusOr<std::shared_ptr<CompiledPlan>> Compile(int pivot_var) {
    EBA_RETURN_IF_ERROR(q_.Validate(*db_));
    plan_ = std::make_shared<CompiledPlan>();
    plan_->db = db_;
    plan_->catalog_generation = snapshot_.generation();
    plan_->tables.resize(q_.vars.size());
    for (size_t i = 0; i < q_.vars.size(); ++i) {
      EBA_ASSIGN_OR_RETURN(plan_->tables[i], db_->GetTable(q_.vars[i].table));
    }
    plan_->table_watermarks.reserve(q_.vars.size());
    for (const Table* t : plan_->tables) {
      // The recorded watermark is the LIVE one, read here — before any
      // dictionary size is read while compiling joins below. Any row below
      // this watermark published its dictionary codes first, so the
      // translation tables computed later cover every code a snapshot at or
      // below this watermark can reach; the plan then replays as-is for all
      // such snapshots, with probes clamped at run time.
      plan_->table_watermarks.push_back(t->append_watermark());
    }

    join_applied_.assign(joins_.size(), false);
    extra_applied_.assign(extras_.size(), false);
    const_applied_.assign(consts_.size(), false);
    bound_.assign(q_.vars.size(), false);
    bound_[static_cast<size_t>(pivot_var)] = true;

    const CardinalityEstimator estimator(db_);

    // --- Initial frame: the pivot variable's rows that pass every
    // --- condition on the pivot alone. ---
    PlanStep seed;
    seed.kind = PlanStep::Kind::kSeedRange;
    seed.new_var = pivot_var;
    std::vector<int> fused = TakeChecks(pivot_var, &seed.checks);
    Emit(std::move(seed));
    EmitDropAndDedup();
    AddStatsPoints(-1, -1.0, fused);

    // --- Join loop: order the binding joins. Every binding step checks
    // --- the conditions it completes, so no unapplied chain condition ever
    // --- has both sides bound here. ---
    size_t remaining = joins_.size() - fused.size();
    while (remaining > 0) {
      // Pick the smallest fan-out per input row — every candidate would be
      // fed the same frame, so that is also the smallest predicted
      // intermediate; ties keep declaration order.
      int pick = -1;
      double pick_fanout = -1.0;
      for (size_t i = 0; i < joins_.size(); ++i) {
        if (join_applied_[i]) continue;
        const bool lb = bound_[static_cast<size_t>(joins_[i].lhs.var)];
        const bool rb = bound_[static_cast<size_t>(joins_[i].rhs.var)];
        EBA_CHECK_MSG(!(lb && rb), "bound chain condition left unchecked");
        if (!lb && !rb) continue;
        const QAttr probe = lb ? joins_[i].lhs : joins_[i].rhs;
        const QAttr build = lb ? joins_[i].rhs : joins_[i].lhs;
        const double fanout = estimator.EstimateJoinStep(
            plan_->tables[static_cast<size_t>(probe.var)], probe,
            plan_->tables[static_cast<size_t>(build.var)], build);
        if (pick < 0 || fanout < pick_fanout) {
          pick = static_cast<int>(i);
          pick_fanout = fanout;
        }
      }
      if (pick < 0) {
        return Status::InvalidArgument(
            "query is disconnected: no join condition touches a bound "
            "variable");
      }
      const VarCondition& c = joins_[static_cast<size_t>(pick)];
      if (c.op != CmpOp::kEq) {
        return Status::Unimplemented(
            "non-equality join in chain; put theta conditions in "
            "extra_conditions");
      }
      join_applied_[static_cast<size_t>(pick)] = true;
      fused = EmitJoin(c);
      EmitDropAndDedup();
      AddStatsPoints(pick, pick_fanout, fused);
      remaining -= 1 + fused.size();
    }

    // Every variable must have been bound (otherwise the query was not a
    // connected path) and every decoration applied.
    for (size_t i = 0; i < q_.vars.size(); ++i) {
      if (!bound_[i]) {
        return Status::InvalidArgument("tuple variable '" + q_.vars[i].alias +
                                       "' is not connected to the query path");
      }
    }
    for (size_t i = 0; i < extras_.size(); ++i) {
      if (!extra_applied_[i]) {
        return Status::Internal("decoration condition left unapplied");
      }
    }
    for (size_t i = 0; i < consts_.size(); ++i) {
      if (!const_applied_[i]) {
        return Status::Internal("literal condition left unapplied");
      }
    }
    plan_->used_semi_join = dedup_frontier_;
    plan_->final_vars = vars_;
    return std::move(plan_);
  }

 private:
  const Column* ColumnOf(const QAttr& a) const {
    return &plan_->tables[static_cast<size_t>(a.var)]->column(
        static_cast<size_t>(a.col));
  }

  /// The slot of a bound tuple variable in the current layout.
  int Slot(int var) const {
    const int slot = SlotOf(vars_, var);
    EBA_CHECK(slot >= 0);
    return slot;
  }

  /// Appends `st` to the plan and advances the slot layout to the one the
  /// step leaves behind: a seed starts it, and a join and a drop keep their
  /// surviving slots in order (a join then appends its new variable).
  void Emit(PlanStep st) {
    auto keep = [this](const std::vector<uint32_t>& slots) {
      std::vector<int> next;
      next.reserve(slots.size() + 1);
      for (uint32_t s : slots) next.push_back(vars_[s]);
      return next;
    };
    switch (st.kind) {
      case PlanStep::Kind::kSeedRange:
        vars_ = {st.new_var};
        break;
      case PlanStep::Kind::kJoin:
        vars_ = keep(st.keep_slots);
        if (st.keep_new) vars_.push_back(st.new_var);
        break;
      case PlanStep::Kind::kDrop:
        vars_ = keep(st.drop_keep_slots);
        break;
    }
    plan_->steps.push_back(std::move(st));
  }

  /// Records the stats point of the chain condition `pick` probed by the
  /// last binding step (none for the seed, pick < 0) and of each chain
  /// condition in `fused` it checked, all after the step's trailing drop.
  void AddStatsPoints(int pick, double fanout, const std::vector<int>& fused) {
    CompiledPlan::StatsPoint sp;
    sp.after_step = plan_->steps.size() - 1;
    if (pick >= 0) {
      sp.condition_index = pick;
      sp.fanout = fanout;
      plan_->stats_points.push_back(sp);
    }
    sp.is_filter = true;
    sp.fanout = -1.0;
    for (int i : fused) {
      sp.condition_index = i;
      plan_->stats_points.push_back(sp);
    }
  }

  /// Marks applied, and compiles into `checks`, every unapplied condition
  /// that binding `var` (already marked bound) completes: chain conditions
  /// first, then literals, then decorations. Sides on `var` name the
  /// candidate slot, one past the current layout. Returns the chain
  /// conditions taken, for their stats points.
  std::vector<int> TakeChecks(int var, std::vector<PlanCheck>* checks) {
    const int cand = static_cast<int>(vars_.size());
    auto slot = [&](int v) { return v == var ? cand : Slot(v); };
    auto complete = [&](const VarCondition& c) {
      return bound_[static_cast<size_t>(c.lhs.var)] &&
             bound_[static_cast<size_t>(c.rhs.var)];
    };
    auto attr_check = [&](const VarCondition& c) {
      return CompileAttrCheck(slot(c.lhs.var), ColumnOf(c.lhs), c.op,
                              slot(c.rhs.var), ColumnOf(c.rhs));
    };
    std::vector<int> fused;
    for (size_t i = 0; i < joins_.size(); ++i) {
      if (join_applied_[i] || !complete(joins_[i])) continue;
      join_applied_[i] = true;
      fused.push_back(static_cast<int>(i));
      checks->push_back(attr_check(joins_[i]));
    }
    for (size_t i = 0; i < consts_.size(); ++i) {
      const ConstCondition& c = consts_[i];
      if (const_applied_[i] || !bound_[static_cast<size_t>(c.lhs.var)]) {
        continue;
      }
      const_applied_[i] = true;
      checks->push_back(
          CompileLiteralCheck(slot(c.lhs.var), ColumnOf(c.lhs), c.op, c.rhs));
    }
    for (size_t i = 0; i < extras_.size(); ++i) {
      if (extra_applied_[i] || !complete(extras_[i])) continue;
      extra_applied_[i] = true;
      checks->push_back(attr_check(extras_[i]));
    }
    return fused;
  }

  /// Variables still needed downstream: referenced by an unapplied
  /// condition or by an output attribute.
  std::vector<bool> NeededVars() const {
    std::vector<bool> needed(bound_.size(), false);
    for (const auto& a : output_attrs_) {
      needed[static_cast<size_t>(a.var)] = true;
    }
    for (size_t i = 0; i < joins_.size(); ++i) {
      if (join_applied_[i]) continue;
      needed[static_cast<size_t>(joins_[i].lhs.var)] = true;
      needed[static_cast<size_t>(joins_[i].rhs.var)] = true;
    }
    for (size_t i = 0; i < extras_.size(); ++i) {
      if (extra_applied_[i]) continue;
      needed[static_cast<size_t>(extras_[i].lhs.var)] = true;
      needed[static_cast<size_t>(extras_[i].rhs.var)] = true;
    }
    for (size_t i = 0; i < consts_.size(); ++i) {
      if (const_applied_[i]) continue;
      needed[static_cast<size_t>(consts_[i].lhs.var)] = true;
    }
    return needed;
  }

  /// The semi-join step: drops every frame column whose tuple variable is
  /// no longer needed (see NeededVars), then deduplicates the surviving
  /// row-id tuples. Seed and join steps keep tuples unique, so dedup is
  /// only needed when a column was dropped — here or inside the preceding
  /// join (join_dropped_). A join that drops only its new variable writes
  /// each input row at most once, a subsequence of its duplicate-free input,
  /// so it needs none.
  void EmitDropAndDedup() {
    if (!dedup_frontier_) return;
    const std::vector<bool> needed = NeededVars();
    bool dropped = join_dropped_;
    join_dropped_ = false;
    std::vector<uint32_t> keep;
    keep.reserve(vars_.size());
    for (size_t s = 0; s < vars_.size(); ++s) {
      if (needed[static_cast<size_t>(vars_[s])]) {
        keep.push_back(static_cast<uint32_t>(s));
      } else {
        dropped = true;
      }
    }
    if (!dropped) return;
    PlanStep st;
    st.kind = PlanStep::Kind::kDrop;
    st.drop_keep_slots = std::move(keep);
    st.dedup = true;
    Emit(std::move(st));
  }

  /// Compiles one binding hash-join: resolves the probe dispatch, the index
  /// binding, the dictionary-code translation, the checks of every
  /// condition the binding completes, and the semi-join keep mask. Returns
  /// the chain conditions it checks.
  std::vector<int> EmitJoin(const VarCondition& c) {
    const bool lhs_bound = bound_[static_cast<size_t>(c.lhs.var)];
    const QAttr bound_attr = lhs_bound ? c.lhs : c.rhs;
    const QAttr new_attr = lhs_bound ? c.rhs : c.lhs;
    const int new_var = new_attr.var;
    const Table* new_table = plan_->tables[static_cast<size_t>(new_var)];
    const HashIndex& idx =
        new_table->GetOrBuildIndex(static_cast<size_t>(new_attr.col));
    const Column& build_col =
        new_table->column(static_cast<size_t>(new_attr.col));
    const Column& probe_col = *ColumnOf(bound_attr);

    PlanStep st;
    st.kind = PlanStep::Kind::kJoin;
    st.probe_slot = Slot(bound_attr.var);
    st.probe_col = &probe_col;
    st.index = &idx;
    st.new_var = new_var;
    st.index_col = new_attr.col;
    if (probe_col.IsIntLike() && build_col.IsIntLike()) {
      st.probe_kind = PlanStep::ProbeKind::kInt64;
    } else if (probe_col.IsString() && build_col.IsString()) {
      if (&probe_col == &build_col) {
        st.probe_kind = PlanStep::ProbeKind::kStringSameColumn;
      } else {
        st.probe_kind = PlanStep::ProbeKind::kStringTranslated;
        st.translated_codes = idx.TranslateCodesFrom(probe_col);
        st.build_dict_size = build_col.DictionarySize();
      }
    } else {
      st.probe_kind = PlanStep::ProbeKind::kBoxed;
    }

    bound_[static_cast<size_t>(new_var)] = true;
    std::vector<int> fused = TakeChecks(new_var, &st.checks);

    // In semi-join mode, columns whose variable is already doomed (the
    // probed condition and every checked one are marked applied, so
    // NeededVars reflects the post-join state) are never gathered: the
    // checks read the entering frame, and nothing downstream reads them.
    st.keep_slots.reserve(vars_.size());
    st.keep_new = true;
    if (dedup_frontier_) {
      const std::vector<bool> needed = NeededVars();
      for (size_t s = 0; s < vars_.size(); ++s) {
        if (needed[static_cast<size_t>(vars_[s])]) {
          st.keep_slots.push_back(static_cast<uint32_t>(s));
        } else {
          join_dropped_ = true;
        }
      }
      st.keep_new = needed[static_cast<size_t>(new_var)];
    } else {
      for (size_t s = 0; s < vars_.size(); ++s) {
        st.keep_slots.push_back(static_cast<uint32_t>(s));
      }
    }
    Emit(std::move(st));
    return fused;
  }

  const Database::Snapshot& snapshot_;
  const Database* db_;
  const PathQuery& q_;
  const std::vector<QAttr>& output_attrs_;
  const bool dedup_frontier_;
  std::shared_ptr<CompiledPlan> plan_;

  const std::vector<VarCondition>& joins_;
  const std::vector<VarCondition>& extras_;
  const std::vector<ConstCondition>& consts_;

  std::vector<int> vars_;      // slot -> tuple variable after the last step
  bool join_dropped_ = false;  // a join skipped a doomed entering column
  std::vector<bool> join_applied_;
  std::vector<bool> extra_applied_;
  std::vector<bool> const_applied_;
  std::vector<bool> bound_;
};

/// Compiles `q` into a plan seeded at `pivot_var`'s rows, projecting onto
/// `output_attrs`, in semi-join mode when `dedup_frontier`.
StatusOr<std::shared_ptr<CompiledPlan>> CompilePlan(
    const Database::Snapshot& snapshot, const PathQuery& q,
    const std::vector<QAttr>& output_attrs, bool dedup_frontier,
    int pivot_var) {
  return PlanCompiler(snapshot, q, output_attrs, dedup_frontier)
      .Compile(pivot_var);
}

/// The plan interpreter, and the only code that executes steps: every
/// frozen step, starting with the kSeedRange seed, runs in order against
/// the runtime inputs (the seed range and the snapshot bounds). A plan just
/// compiled and one replayed from the cache run through exactly this code.
Frame RunPlan(const CompiledPlan& plan, RowRange seed_range,
              const std::vector<size_t>& var_bounds, ExecStats* stats) {
  stats->used_semi_join = plan.used_semi_join;
  Frame frame;
  size_t sp = 0;
  size_t join_input_rows = 0;  // frame size entering the latest kJoin step
  for (size_t k = 0; k < plan.steps.size(); ++k) {
    const PlanStep& st = plan.steps[k];
    if (st.kind == PlanStep::Kind::kJoin) join_input_rows = frame.size();
    ApplyStep(&frame, st, stats, seed_range, var_bounds);
    for (; sp < plan.stats_points.size() &&
           plan.stats_points[sp].after_step == k;
         ++sp) {
      const CompiledPlan::StatsPoint& point = plan.stats_points[sp];
      ExecStats::JoinStep step;
      step.condition_index = point.condition_index;
      step.is_filter = point.is_filter;
      step.rows_after = frame.size();
      step.estimated_rows =
          point.fanout < 0.0
              ? -1.0
              : point.fanout * static_cast<double>(join_input_rows);
      stats->join_order.push_back(step);
    }
  }
  // Every step kept the frame's slot count in step with the layout the
  // compiler tracked; the final layout is the plan's.
  EBA_CHECK(frame.ids.size() == plan.final_vars.size());
  return frame;
}

/// Structural cache key for a compiled plan: every input that shapes the
/// compiled pipeline — tables, conditions, resolved literals, projection,
/// semi-join mode and pivot variable. Two queries
/// with equal keys compile to interchangeable plans (aliases do not affect
/// execution, so they are deliberately excluded).
std::string PlanKey(const PathQuery& q, const std::vector<QAttr>& output_attrs,
                    bool dedup_frontier, int pivot_var) {
  std::string key;
  key.reserve(64 + 16 * (q.vars.size() + q.join_chain.size() +
                         q.extra_conditions.size() +
                         q.const_conditions.size() + output_attrs.size()));
  auto attr = [&key](const QAttr& a) {
    key += std::to_string(a.var);
    key += '.';
    key += std::to_string(a.col);
  };
  // Length-prefixed, so free-form text (table names, string literals)
  // cannot forge the key's separators.
  auto text = [&key](const std::string& s) {
    key += std::to_string(s.size());
    key += '#';
    key += s;
  };
  auto literal = [&](const Value& v) {
    key += DataTypeToString(v.type());
    key += ':';
    if (v.is_null()) {
      key += "null";
    } else if (v.type() == DataType::kDouble) {
      // Bit-exact: ToString's %g rendering would collide nearby doubles
      // onto one key and replay the wrong resolved literal.
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      key += std::to_string(bits);
    } else {
      text(v.ToString());
    }
  };
  key += dedup_frontier ? 'F' : 'f';
  // The pivot variable shapes the compiled pipeline; the seed range itself
  // is a runtime input and deliberately excluded.
  key += std::to_string(pivot_var);
  key += '|';
  for (const auto& v : q.vars) {
    text(v.table);
    key += ',';
  }
  key += '|';
  for (const auto& c : q.join_chain) {
    attr(c.lhs);
    key += CmpOpToString(c.op);
    attr(c.rhs);
    key += '&';
  }
  key += '|';
  for (const auto& c : q.extra_conditions) {
    attr(c.lhs);
    key += CmpOpToString(c.op);
    attr(c.rhs);
    key += '&';
  }
  key += '|';
  for (const auto& c : q.const_conditions) {
    attr(c.lhs);
    key += CmpOpToString(c.op);
    literal(c.rhs);
    key += '&';
  }
  key += '|';
  for (const auto& a : output_attrs) {
    attr(a);
    key += ',';
  }
  return key;
}

/// Materializes the frame onto `output_attrs`: one gather per output column
/// — the only place boxed Values are created — then one row per tuple.
Relation MaterializeFrame(const Frame& frame, const CompiledPlan& plan,
                          const std::vector<QAttr>& output_attrs) {
  Relation out;
  out.attrs = output_attrs;
  std::vector<std::vector<Value>> cols(output_attrs.size());
  for (size_t j = 0; j < output_attrs.size(); ++j) {
    const QAttr& a = output_attrs[j];
    const int slot = SlotOf(plan.final_vars, a.var);
    EBA_CHECK_MSG(slot >= 0, "projection variable missing from frame");
    plan.tables[static_cast<size_t>(a.var)]
        ->column(static_cast<size_t>(a.col))
        .MaterializeInto(frame.ids[static_cast<size_t>(slot)], &cols[j]);
  }
  out.rows.resize(frame.size());
  for (size_t i = 0; i < out.rows.size(); ++i) {
    Row& row = out.rows[i];
    row.reserve(cols.size());
    for (std::vector<Value>& col : cols) row.push_back(std::move(col[i]));
  }
  return out;
}

}  // namespace

// ===========================================================================
// Executor: public entry points.
// ===========================================================================

struct Executor::FrameRun {
  Frame frame;
  std::shared_ptr<const CompiledPlan> plan;  // the plan the frame ran
};

Executor::Executor(const Database* db) : Executor(db, ExecutorOptions{}) {}

Executor::Executor(const Database* db, ExecutorOptions options)
    : db_(db), options_(options) {
  EBA_CHECK(db != nullptr);
}

Executor::Executor(const Database::Snapshot& snapshot)
    : Executor(snapshot, ExecutorOptions{}) {}

Executor::Executor(const Database::Snapshot& snapshot, ExecutorOptions options)
    : db_(snapshot.database()),
      fixed_snapshot_(snapshot),
      has_fixed_snapshot_(true),
      options_(options) {
  EBA_CHECK_MSG(db_ != nullptr, "snapshot is empty (no database)");
}

Database::Snapshot Executor::QuerySnapshot() const {
  return has_fixed_snapshot_ ? fixed_snapshot_ : db_->CreateSnapshot();
}

StatusOr<Executor::FrameRun> Executor::RunFrame(
    const Database::Snapshot& snapshot, const PathQuery& q,
    const std::vector<QAttr>& output_attrs, bool dedup_frontier,
    int pivot_var, RowRange range) const {
  stats_ = ExecStats{};

  // `snapshot` is the one read view of the whole run: plan lookup, compile,
  // seed, every probe, and literal resolution all observe its watermarks.
  PlanCache* cache = options_.plan_cache;
  std::string key;
  std::shared_ptr<const CompiledPlan> plan;
  if (cache != nullptr) {
    key = PlanKey(q, output_attrs, dedup_frontier, pivot_var);
    plan = cache->Lookup(key, snapshot);
  }
  stats_.plan_cache_hit = plan != nullptr;
  if (plan == nullptr) {
    EBA_ASSIGN_OR_RETURN(plan, CompilePlan(snapshot, q, output_attrs,
                                           dedup_frontier, pivot_var));
    if (cache != nullptr) cache->Insert(key, plan);
  }

  std::vector<size_t> var_bounds;
  var_bounds.reserve(plan->tables.size());
  for (const Table* t : plan->tables) var_bounds.push_back(snapshot.BoundOf(t));
  FrameRun run;
  run.frame = RunPlan(*plan, range, var_bounds, &stats_);
  run.plan = std::move(plan);
  return run;
}

StatusOr<Relation> Executor::Materialize(const PathQuery& q) const {
  std::vector<QAttr> output = q.projection;
  if (output.empty()) output = q.ReferencedAttrs();
  EBA_ASSIGN_OR_RETURN(
      FrameRun run, RunFrame(QuerySnapshot(), q, output,
                             /*dedup_frontier=*/false, /*pivot_var=*/0,
                             kAllRows));
  return MaterializeFrame(run.frame, *run.plan, output);
}

StatusOr<Relation> Executor::MaterializeForLogIds(
    const PathQuery& q, QAttr lid_attr, const std::vector<Value>& lids) const {
  EBA_ASSIGN_OR_RETURN(const Table* log_table, LidTable(*db_, q, lid_attr));
  std::vector<QAttr> output = q.projection;
  if (output.empty()) output = q.ReferencedAttrs();
  // Ensure the lid is part of the output so callers can group instances.
  if (std::find(output.begin(), output.end(), lid_attr) == output.end()) {
    output.insert(output.begin(), lid_attr);
  }
  // The lids' rows, each once and in lid order, as contiguous ranges. Runs
  // keep their seed order, so concatenating one run per range equals one
  // run over all the rows.
  const Database::Snapshot snapshot = QuerySnapshot();
  const size_t col = static_cast<size_t>(lid_attr.col);
  const HashIndex& idx = log_table->GetOrBuildIndex(col);
  std::vector<RowRange> ranges;
  FlatSet64 rows_seen;
  for (const Value& lid : lids) {
    for (uint32_t r : LidMatches(idx, log_table->column(col), lid,
                                 snapshot.BoundOf(log_table))) {
      if (!rows_seen.Insert(r)) continue;
      if (!ranges.empty() && ranges.back().end == r) {
        ++ranges.back().end;
      } else {
        ranges.push_back(RowRange{r, size_t{r} + 1});
      }
    }
  }
  // No row still runs once, from an empty seed range, so the query is
  // validated and its plan cached.
  if (ranges.empty()) ranges.emplace_back();

  Relation out;
  out.attrs = output;
  for (const RowRange& range : ranges) {
    EBA_ASSIGN_OR_RETURN(
        FrameRun run, RunFrame(snapshot, q, output, /*dedup_frontier=*/false,
                               /*pivot_var=*/0, range));
    Relation part = MaterializeFrame(run.frame, *run.plan, output);
    out.rows.insert(out.rows.end(), std::make_move_iterator(part.rows.begin()),
                    std::make_move_iterator(part.rows.end()));
  }
  return out;
}

StatusOr<int64_t> Executor::CountDistinct(const PathQuery& q, QAttr lid_attr,
                                          SupportStrategy strategy) const {
  EBA_ASSIGN_OR_RETURN(auto values, DistinctValues(q, lid_attr, strategy));
  return static_cast<int64_t>(values.size());
}

StatusOr<std::vector<Value>> Executor::DistinctValues(
    const PathQuery& q, QAttr lid_attr, SupportStrategy strategy) const {
  EBA_RETURN_IF_ERROR(LidTable(*db_, q, lid_attr).status());
  std::vector<QAttr> output = {lid_attr};
  EBA_ASSIGN_OR_RETURN(
      FrameRun run,
      RunFrame(QuerySnapshot(), q, output,
               strategy == SupportStrategy::kDedupFrontier, /*pivot_var=*/0,
               kAllRows));
  const int slot = SlotOf(run.plan->final_vars, lid_attr.var);
  EBA_CHECK(slot >= 0);
  const std::vector<uint32_t>& ids = run.frame.ids[static_cast<size_t>(slot)];
  const Column& col =
      run.plan->tables[0]->column(static_cast<size_t>(lid_attr.col));

  if (col.IsIntLike()) {
    // Distinct raw payloads, boxed once at the very end; NULL (if any)
    // sorts first, matching Value ordering.
    bool has_null = false;
    std::vector<int64_t> raw;
    raw.reserve(ids.size());
    for (uint32_t r : ids) {
      if (col.IsNull(r)) {
        has_null = true;
      } else {
        raw.push_back(col.Int64At(r));
      }
    }
    std::sort(raw.begin(), raw.end());
    raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
    std::vector<Value> values;
    values.reserve(raw.size() + (has_null ? 1 : 0));
    if (has_null) values.push_back(Value::Null());
    for (int64_t v : raw) {
      switch (col.type()) {
        case DataType::kBool:
          values.push_back(Value::Bool(v != 0));
          break;
        case DataType::kTimestamp:
          values.push_back(Value::Timestamp(v));
          break;
        default:
          values.push_back(Value::Int64(v));
          break;
      }
    }
    return values;
  }
  std::set<Value> distinct;
  for (uint32_t r : ids) distinct.insert(col.Get(r));
  return std::vector<Value>(distinct.begin(), distinct.end());
}

StatusOr<std::vector<int64_t>> Executor::DistinctLids(const PathQuery& q,
                                                      QAttr lid_attr) const {
  EBA_ASSIGN_OR_RETURN(const Table* log_table, LidTable(*db_, q, lid_attr));
  EBA_ASSIGN_OR_RETURN(
      const std::vector<uint32_t> rows,
      LogRowsJoinedTo(q, lid_attr, /*pivot_var=*/0, kAllRows));
  const Column& lid_col = log_table->column(static_cast<size_t>(lid_attr.col));
  std::vector<int64_t> lids;
  lids.reserve(rows.size());
  for (uint32_t r : rows) {
    if (!lid_col.IsNull(r)) lids.push_back(lid_col.Int64At(r));
  }
  // A variable-0 run keeps its seed's row order, so its lids already
  // ascend whenever the log's lids ascend in row order.
  if (!std::is_sorted(lids.begin(), lids.end())) {
    std::sort(lids.begin(), lids.end());
  }
  lids.erase(std::unique(lids.begin(), lids.end()), lids.end());
  return lids;
}

StatusOr<std::vector<uint32_t>> Executor::LogRowsJoinedTo(
    const PathQuery& q, QAttr lid_attr, int pivot_var, RowRange rows) const {
  EBA_ASSIGN_OR_RETURN(const Table* log_table, LidTable(*db_, q, lid_attr));
  if (!log_table->column(static_cast<size_t>(lid_attr.col)).IsIntLike()) {
    return Status::InvalidArgument("the lid column must be integer-like");
  }
  if (pivot_var < 0 || static_cast<size_t>(pivot_var) >= q.vars.size()) {
    return Status::InvalidArgument("pivot variable out of range");
  }
  EBA_ASSIGN_OR_RETURN(FrameRun run,
                       RunFrame(QuerySnapshot(), q, {lid_attr},
                                /*dedup_frontier=*/true, pivot_var, rows));
  // The semi-join plan ends with variable 0 alone, and every step keeps
  // its tuples distinct, so the slot holds each row once.
  const int slot = SlotOf(run.plan->final_vars, lid_attr.var);
  EBA_CHECK(slot >= 0);
  return std::move(run.frame.ids[static_cast<size_t>(slot)]);
}

}  // namespace eba
