#include "careweb/workload.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "graph/user_graph.h"
#include "log/access_log.h"
#include "log/fake_log.h"

namespace eba {

StatusOr<LogSlice> AddLogSlice(Database* db, const std::string& source_log,
                               const std::string& name, int first_day,
                               int last_day, bool first_only) {
  EBA_ASSIGN_OR_RETURN(const Table* source, db->GetTable(source_log));
  EBA_ASSIGN_OR_RETURN(AccessLog log, AccessLog::Wrap(source));

  std::vector<size_t> rows = log.RowsInDayRange(first_day, last_day);
  if (first_only) {
    std::vector<uint8_t> mask = log.FirstAccessMask();
    std::vector<size_t> filtered;
    filtered.reserve(rows.size());
    for (size_t r : rows) {
      if (mask[r]) filtered.push_back(r);
    }
    rows = std::move(filtered);
  }

  EBA_ASSIGN_OR_RETURN(Table slice, log.MakeSlice(name, rows));
  LogSlice result;
  result.table = name;
  result.lids.reserve(rows.size());
  for (size_t r : rows) result.lids.push_back(log.Get(r).lid);
  std::sort(result.lids.begin(), result.lids.end());

  if (db->HasTable(name)) {
    EBA_RETURN_IF_ERROR(db->DropTable(name));
  }
  EBA_RETURN_IF_ERROR(db->AddTable(std::move(slice)));
  // Mirror the source log's self-join allowances (repeat-access mining).
  if (db->IsSelfJoinAllowed(AttrId{source_log, "Patient"})) {
    EBA_RETURN_IF_ERROR(db->AllowSelfJoin(AttrId{name, "Patient"}));
  }
  if (db->IsSelfJoinAllowed(AttrId{source_log, "User"})) {
    EBA_RETURN_IF_ERROR(db->AllowSelfJoin(AttrId{name, "User"}));
  }
  return result;
}

std::vector<std::string> LogLikeTables(const Database& db) {
  std::vector<std::string> out;
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name).value();
    const TableSchema& schema = table->schema();
    if (schema.HasColumn("Lid") && schema.HasColumn("User") &&
        schema.HasColumn("Patient")) {
      out.push_back(name);
    }
  }
  return out;
}

std::vector<std::string> ExcludedLogsFor(const Database& db,
                                         const std::string& mining_log) {
  std::vector<std::string> out;
  for (const std::string& name : LogLikeTables(db)) {
    if (name != mining_log) out.push_back(name);
  }
  return out;
}

StatusOr<EvalLogSetup> AddEvalLog(Database* db,
                                  const std::string& real_slice_table,
                                  const std::string& name,
                                  const CareWebGroundTruth& truth,
                                  uint64_t seed) {
  EBA_ASSIGN_OR_RETURN(const Table* real, db->GetTable(real_slice_table));
  EBA_ASSIGN_OR_RETURN(AccessLog real_log, AccessLog::Wrap(real));

  Random rng(seed);
  FakeLogOptions options;
  options.num_accesses = real->num_rows();
  options.first_lid = 1'000'000'000;  // far above any organic lid
  options.min_time = real_log.MinTime();
  options.max_time = std::max(real_log.MaxTime(), options.min_time);
  EBA_ASSIGN_OR_RETURN(Table fake,
                       GenerateFakeLog(name + "_fake", truth.all_users,
                                       truth.all_patients, options, &rng));
  EBA_ASSIGN_OR_RETURN(CombinedLog combined,
                       CombineRealAndFake(name, *real, fake));

  if (db->HasTable(name)) {
    EBA_RETURN_IF_ERROR(db->DropTable(name));
  }
  EBA_RETURN_IF_ERROR(db->AddTable(std::move(combined.table)));
  // The repeat-access template needs self-joins on the combined table too.
  EBA_RETURN_IF_ERROR(db->AllowSelfJoin(AttrId{name, "Patient"}));
  EBA_RETURN_IF_ERROR(db->AllowSelfJoin(AttrId{name, "User"}));
  return EvalLogSetup{name, std::move(combined.real_lids),
                      std::move(combined.fake_lids)};
}

StatusOr<GroupHierarchy> BuildGroupsFromDays(
    Database* db, const std::string& source_log, int first_day, int last_day,
    const std::string& groups_table, const HierarchyOptions& options,
    bool include_depth_zero) {
  EBA_ASSIGN_OR_RETURN(const Table* source, db->GetTable(source_log));
  EBA_ASSIGN_OR_RETURN(AccessLog log, AccessLog::Wrap(source));
  std::vector<size_t> rows = log.RowsInDayRange(first_day, last_day);
  EBA_ASSIGN_OR_RETURN(UserGraph graph, UserGraph::BuildFromRows(log, rows));
  EBA_ASSIGN_OR_RETURN(GroupHierarchy hierarchy,
                       GroupHierarchy::Build(graph, options));
  EBA_ASSIGN_OR_RETURN(
      Table groups, hierarchy.ToGroupsTable(groups_table, include_depth_zero));
  if (db->HasTable(groups_table)) {
    EBA_RETURN_IF_ERROR(db->DropTable(groups_table));
  }
  EBA_RETURN_IF_ERROR(db->AddTable(std::move(groups)));
  EBA_RETURN_IF_ERROR(db->AllowSelfJoin(AttrId{groups_table, "Group_id"}));
  return hierarchy;
}

StatusOr<ExplanationTemplate> TemplateApptWithDoctor(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "appt_with_doctor", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User",
      "[L.Patient] had an appointment with [L.User] on [A.Date]");
}

StatusOr<ExplanationTemplate> TemplateVisitWithDoctor(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "visit_with_doctor", "Log L, Visits V",
      "L.Patient = V.Patient AND V.Doctor = L.User",
      "[L.Patient] had a visit with [L.User] on [V.Date]");
}

StatusOr<ExplanationTemplate> TemplateVisitWithAttending(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "visit_with_attending", "Log L, Visits V",
      "L.Patient = V.Patient AND V.Attending = L.User",
      "[L.User] was the attending physician for [L.Patient]'s visit on "
      "[V.Date]");
}

StatusOr<ExplanationTemplate> TemplateDocumentWithAuthor(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "document_with_author", "Log L, Documents D",
      "L.Patient = D.Patient AND D.Author = L.User",
      "[L.User] produced a document for [L.Patient] on [D.Date]");
}

StatusOr<ExplanationTemplate> TemplateRepeatAccess(const Database& db) {
  return ExplanationTemplate::Parse(
      db, "repeat_access", "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date",
      "[L.User] previously accessed [L.Patient]'s record (lid [L2.Lid])");
}

StatusOr<std::vector<ExplanationTemplate>> TemplatesDataSetB(
    const Database& db) {
  struct Spec {
    const char* name;
    const char* table;
    const char* column;
    const char* verb;
  };
  const Spec specs[] = {
      {"lab_ordered_by", "Labs", "Orderer", "ordered labs for"},
      {"lab_resulted_by", "Labs", "Resulter", "processed labs for"},
      {"med_requested_by", "Medications", "Requester",
       "requested medication for"},
      {"med_signed_by", "Medications", "Signer", "signed medication for"},
      {"med_administered_by", "Medications", "Administrator",
       "administered medication to"},
      {"radiology_ordered_by", "Radiology", "Orderer",
       "ordered imaging for"},
      {"radiology_read_by", "Radiology", "Radiologist", "read imaging for"},
  };
  std::vector<ExplanationTemplate> out;
  for (const auto& spec : specs) {
    EBA_ASSIGN_OR_RETURN(
        ExplanationTemplate tmpl,
        ExplanationTemplate::Parse(
            db, spec.name,
            StrFormat("Log L, %s B, UserMap M", spec.table),
            StrFormat("L.Patient = B.Patient AND B.%s = M.audit_id AND "
                      "M.caregiver_id = L.User",
                      spec.column),
            StrFormat("[L.User] %s [L.Patient] on [B.Date]", spec.verb)));
    out.push_back(std::move(tmpl));
  }
  return out;
}

StatusOr<std::vector<ExplanationTemplate>> TemplatesGroups(
    const Database& db, int depth, bool include_dataset_b) {
  struct Spec {
    const char* name;
    const char* table;
    const char* column;
    bool dataset_b;
  };
  const Spec specs[] = {
      {"group_appt", "Appointments", "Doctor", false},
      {"group_visit", "Visits", "Doctor", false},
      {"group_document", "Documents", "Author", false},
      {"group_lab", "Labs", "Orderer", true},
      {"group_med", "Medications", "Requester", true},
      {"group_radiology", "Radiology", "Orderer", true},
  };
  std::vector<ExplanationTemplate> out;
  for (const auto& spec : specs) {
    if (spec.dataset_b && !include_dataset_b) continue;
    std::string name = depth >= 0 ? StrFormat("%s_d%d", spec.name, depth)
                                  : std::string(spec.name);
    std::string from;
    std::string where;
    if (!spec.dataset_b) {
      from = StrFormat("Log L, %s E, Groups G1, Groups G2", spec.table);
      where = StrFormat(
          "L.Patient = E.Patient AND E.%s = G1.User AND "
          "G1.Group_id = G2.Group_id AND G2.User = L.User",
          spec.column);
    } else {
      from = StrFormat("Log L, %s E, UserMap M, Groups G1, Groups G2",
                       spec.table);
      where = StrFormat(
          "L.Patient = E.Patient AND E.%s = M.audit_id AND "
          "M.caregiver_id = G1.User AND G1.Group_id = G2.Group_id AND "
          "G2.User = L.User",
          spec.column);
    }
    if (depth >= 0) {
      where += StrFormat(" AND G1.Group_Depth = %d", depth);
    }
    EBA_ASSIGN_OR_RETURN(
        ExplanationTemplate tmpl,
        ExplanationTemplate::Parse(
            db, name, from, where,
            StrFormat("[L.Patient] had an event (%s) with [G1.User], who "
                      "works with [L.User]",
                      spec.table)));
    out.push_back(std::move(tmpl));
  }
  return out;
}

StatusOr<std::vector<ExplanationTemplate>> TemplatesSameDepartment(
    const Database& db) {
  struct Spec {
    const char* name;
    const char* table;
    const char* column;
  };
  const Spec specs[] = {
      {"dept_appt", "Appointments", "Doctor"},
      {"dept_visit", "Visits", "Doctor"},
      {"dept_document", "Documents", "Author"},
  };
  std::vector<ExplanationTemplate> out;
  for (const auto& spec : specs) {
    EBA_ASSIGN_OR_RETURN(
        ExplanationTemplate tmpl,
        ExplanationTemplate::Parse(
            db, spec.name, StrFormat("Log L, %s E, Users U1, Users U2", spec.table),
            StrFormat("L.Patient = E.Patient AND E.%s = U1.uid AND "
                      "U1.Department = U2.Department AND U2.uid = L.User",
                      spec.column),
            StrFormat("[L.Patient] had an event with [U1.uid], and [L.User] "
                      "works in the same department ([U1.Department])")));
    out.push_back(std::move(tmpl));
  }
  return out;
}

StatusOr<std::vector<ExplanationTemplate>> TemplatesHandcraftedDirect(
    const Database& db, bool include_repeat) {
  std::vector<ExplanationTemplate> out;
  EBA_ASSIGN_OR_RETURN(ExplanationTemplate appt, TemplateApptWithDoctor(db));
  out.push_back(std::move(appt));
  EBA_ASSIGN_OR_RETURN(ExplanationTemplate visit, TemplateVisitWithDoctor(db));
  out.push_back(std::move(visit));
  EBA_ASSIGN_OR_RETURN(ExplanationTemplate attending,
                       TemplateVisitWithAttending(db));
  out.push_back(std::move(attending));
  EBA_ASSIGN_OR_RETURN(ExplanationTemplate doc,
                       TemplateDocumentWithAuthor(db));
  out.push_back(std::move(doc));
  if (include_repeat) {
    EBA_ASSIGN_OR_RETURN(ExplanationTemplate repeat, TemplateRepeatAccess(db));
    out.push_back(std::move(repeat));
  }
  return out;
}

}  // namespace eba
