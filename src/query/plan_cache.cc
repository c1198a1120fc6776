#include "query/plan_cache.h"

#include <utility>

namespace eba {

CompiledPlan::Freshness CompiledPlan::CheckFreshness(
    const Database::Snapshot& snapshot) const {
  bool appended = false;
  for (size_t i = 0; i < tables.size(); ++i) {
    const Database::Snapshot::TableView* view = snapshot.ViewOf(tables[i]);
    if (view == nullptr ||
        view->structural_epoch != table_structural_epochs[i]) {
      return Freshness::kStale;
    }
    if (view->watermark > table_watermarks[i]) {
      // The snapshot pins rows past what the plan was bound against:
      // indexes and translation tables need extending. Tables are
      // append-only below the structural layer, so watermarks only move
      // forward within one structural epoch.
      appended = true;
    }
    // view->watermark <= recorded: the plan is at least as new as the
    // snapshot. Replay clamps every probe and scan to the snapshot bound,
    // so the newer bindings evaluate the older view exactly — kFresh.
  }
  return appended ? Freshness::kAppendedOnly : Freshness::kFresh;
}

size_t CompiledPlan::ApproxBytes() const {
  size_t bytes = sizeof(CompiledPlan);
  bytes += tables.capacity() * sizeof(const Table*);
  bytes += table_structural_epochs.capacity() * sizeof(uint64_t);
  bytes += table_watermarks.capacity() * sizeof(uint64_t);
  bytes += stats_points.capacity() * sizeof(StatsPoint);
  bytes += final_vars.capacity() * sizeof(int);
  bytes += steps.capacity() * sizeof(PlanStep);
  for (const PlanStep& st : steps) {
    bytes += st.translated_codes.capacity() * sizeof(int64_t);
    bytes += st.keep_slots.capacity() * sizeof(uint32_t);
    bytes += st.drop_keep_slots.capacity() * sizeof(uint32_t);
    bytes += st.checks.capacity() * sizeof(PlanCheck);
    for (const PlanCheck& c : st.checks) bytes += c.lit_string.capacity();
  }
  return bytes;
}

std::shared_ptr<const CompiledPlan> RebindPlanForAppend(
    const CompiledPlan& plan) {
  auto rebound = std::make_shared<CompiledPlan>(plan);
  // Stamp the new watermarks FIRST, before any index or dictionary state is
  // read below. A row below a stamped watermark published its dictionary
  // codes before the watermark was readable, so the translation tables and
  // literal resolutions computed afterwards cover every code reachable by
  // any snapshot at or below these watermarks — even while the single
  // writer keeps appending during the rebind.
  for (size_t i = 0; i < rebound->tables.size(); ++i) {
    rebound->table_watermarks[i] = rebound->tables[i]->append_watermark();
  }
  for (PlanStep& st : rebound->steps) {
    for (PlanCheck& c : st.checks) {
      if (!c.lit_rebindable) continue;
      // A string-equality literal absent from the dictionary at compile
      // time: appends may have minted its code.
      auto code = c.lhs_col->FindStringCode(c.lit_string);
      if (code) {
        c.kind = PlanCheck::Kind::kStringCode;
        c.lit_int = *code;
        c.lit_rebindable = false;  // codes are stable once minted
      }
    }
    if (st.kind != PlanStep::Kind::kJoin) continue;
    const Table* table = rebound->tables[static_cast<size_t>(st.new_var)];
    // Re-request the index: extends it past the watermark. The HashIndex
    // object survives appends, so the pointer is unchanged in practice —
    // the call exists for its extension side effect.
    st.index = &table->GetOrBuildIndex(static_cast<size_t>(st.index_col));
    if (st.probe_kind != PlanStep::ProbeKind::kStringTranslated) continue;
    const Column& build_col = table->column(static_cast<size_t>(st.index_col));
    const size_t build_dict = build_col.DictionarySize();
    const size_t probe_dict = st.probe_col->DictionarySize();
    if (build_dict != st.build_dict_size) {
      // New build-side strings: probe codes that previously resolved to -1
      // may now translate, so recompute the whole table.
      st.translated_codes = st.index->TranslateCodesFrom(*st.probe_col);
      st.build_dict_size = build_dict;
    } else if (probe_dict > st.translated_codes.size()) {
      // Only the probe side minted codes: translate just the suffix.
      st.translated_codes.reserve(probe_dict);
      for (size_t code = st.translated_codes.size(); code < probe_dict;
           ++code) {
        auto own = build_col.FindStringCode(
            st.probe_col->DictionaryEntry(static_cast<int64_t>(code)));
        st.translated_codes.push_back(own ? *own : -1);
      }
    }
  }
  return rebound;
}

std::shared_ptr<const CompiledPlan> PlanCache::Lookup(
    const std::string& key, const Database::Snapshot& snapshot) {
  // Writer lock even on the read path: a hit mutates the hit counters, and
  // an append-only hit re-binds the entry in place.
  WriterMutexLock lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  // The catalog-generation check runs first: it guarantees every Table* in
  // the plan is still alive before CheckFreshness dereferences them. Both
  // the freshness check and a rebind take table-level leaf locks, so
  // holding the cache mutex across them cannot deadlock.
  if (it->second.plan->db != snapshot.database() ||
      it->second.plan->catalog_generation != snapshot.generation()) {
    resident_bytes_ -= it->second.bytes;
    plans_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  switch (it->second.plan->CheckFreshness(snapshot)) {
    case CompiledPlan::Freshness::kFresh:
      break;
    case CompiledPlan::Freshness::kAppendedOnly: {
      // Re-bind in place: refresh index bindings and code translations for
      // the appended suffix instead of discarding the compiled plan.
      std::shared_ptr<const CompiledPlan> rebound =
          RebindPlanForAppend(*it->second.plan);
      resident_bytes_ -= it->second.bytes;
      it->second.plan = std::move(rebound);
      it->second.bytes = it->second.plan->ApproxBytes() + it->first.size();
      resident_bytes_ += it->second.bytes;
      ++stats_.rebinds;
      break;
    }
    case CompiledPlan::Freshness::kStale:
      resident_bytes_ -= it->second.bytes;
      plans_.erase(it);
      ++stats_.invalidations;
      ++stats_.misses;
      return nullptr;
  }
  ++stats_.hits;
  return it->second.plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const CompiledPlan> plan) {
  WriterMutexLock lock(mu_);
  Entry& entry = plans_[key];
  resident_bytes_ -= entry.bytes;
  entry.plan = std::move(plan);
  entry.bytes = entry.plan->ApproxBytes() + key.size();
  resident_bytes_ += entry.bytes;
}

PlanCache::Stats PlanCache::stats() const {
  SharedMutexLock lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  SharedMutexLock lock(mu_);
  return plans_.size();
}

size_t PlanCache::resident_bytes() const {
  SharedMutexLock lock(mu_);
  return resident_bytes_;
}

}  // namespace eba
