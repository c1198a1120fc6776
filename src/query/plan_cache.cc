#include "query/plan_cache.h"

#include <utility>

namespace eba {

bool CompiledPlan::NeedsRebind(const Database::Snapshot& snapshot) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    // A snapshot at or below the recorded watermark needs nothing: replay
    // clamps every probe and scan to the snapshot bound, so the newer
    // bindings evaluate the older view exactly.
    if (snapshot.BoundOf(tables[i]) > table_watermarks[i]) return true;
  }
  return false;
}

size_t CompiledPlan::ApproxBytes() const {
  size_t bytes = sizeof(CompiledPlan);
  bytes += tables.capacity() * sizeof(const Table*);
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
  // the plan is still alive, and part of the snapshot, before a rebind
  // dereferences them. A rebind takes table-level leaf locks, so holding
  // the cache mutex across it cannot deadlock.
  if (it->second.plan->db != snapshot.database() ||
      it->second.plan->catalog_generation != snapshot.generation()) {
    resident_bytes_ -= it->second.bytes;
    plans_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.plan->NeedsRebind(snapshot)) {
    // Re-bind in place: refresh index bindings and code translations for
    // the appended suffix instead of discarding the compiled plan.
    std::shared_ptr<const CompiledPlan> rebound =
        RebindPlanForAppend(*it->second.plan);
    resident_bytes_ -= it->second.bytes;
    it->second.plan = std::move(rebound);
    it->second.bytes = it->second.plan->ApproxBytes() + it->first.size();
    resident_bytes_ += it->second.bytes;
    ++stats_.rebinds;
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
