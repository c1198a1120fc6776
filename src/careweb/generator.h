// GenerateCareWeb: builds a complete synthetic hospital database + access
// log with known ground truth. It stands in for the paper's proprietary
// hospital data (§5.2); careweb/config.h lists the structural properties
// the paper's results rest on (low user-patient density, events naming
// only the primary doctor, consult services acting on recorded orders,
// repeat accesses dominating) and that the generator's defaults reproduce,
// which is why the substitution preserves the paper's behaviour.
//
// Schema produced (key domains in brackets):
//   Users(uid*[user], Name, Department[dept], Role)
//   Patients(pid*[patient], Name)
//   Appointments(Patient[patient], Date, Doctor[user])            data set A
//   Visits(Patient, Date, Doctor[user], Attending[user])          data set A
//   Documents(Patient, Date, Author[user], Signer[user],
//             Enterer[user])                                      data set A
//   Labs(Patient, Date, Orderer[audit], Resulter[audit])          data set B
//   Medications(Patient, Date, Requester[audit], Signer[audit],
//               Administrator[audit])                             data set B
//   Radiology(Patient, Date, Orderer[audit], Radiologist[audit])  data set B
//   UserMap(caregiver_id[user], audit_id[audit])     mapping table (§5.3.3)
//   Log(Lid*, Date, User[user], Patient[patient], Action)
//
// Data set B identifies users by audit id (caregiver id + offset), so paths
// from data set B tables to the log must traverse UserMap — replicating the
// paper's two-identifier wrinkle. UserMap is registered as a mapping table
// (exempt from the table budget T and from reported template length).
// Self-joins are allowed on Users.Department, Log.Patient and Log.User
// (repeat access); the Groups table self-join is added later when groups
// are built.

#ifndef EBA_CAREWEB_GENERATOR_H_
#define EBA_CAREWEB_GENERATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "careweb/config.h"
#include "common/status.h"
#include "storage/database.h"

namespace eba {

/// Ground truth the generator knows about the data it produced; used by
/// tests and by EXPERIMENTS.md sanity checks (the real study could not have
/// this — we can, because we built the hospital).
struct CareWebGroundTruth {
  struct Team {
    int team_id = 0;
    std::string name;
    std::vector<int64_t> doctors;
    std::vector<int64_t> members;  // all users incl. doctors
    std::vector<std::string> dept_codes;
  };
  std::vector<Team> teams;
  /// Users of consult services (explained only via data set B).
  std::vector<int64_t> consult_users;
  /// patient id -> team index.
  std::unordered_map<int64_t, int> patient_team;
  /// lid -> reason tag: "appt_doctor", "team", "attending", "document",
  /// "consult_lab", "consult_med", "consult_rad", "repeat", "missing_event",
  /// "random".
  std::unordered_map<int64_t, std::string> access_reason;
  /// All user ids / patient ids (for fake-log sampling).
  std::vector<int64_t> all_users;
  std::vector<int64_t> all_patients;
};

struct CareWebData {
  Database db;
  CareWebGroundTruth truth;
  CareWebConfig config;
};

/// Builds the database and log. Deterministic for a fixed config.seed.
StatusOr<CareWebData> GenerateCareWeb(const CareWebConfig& config);

/// Names of the data-set-A / data-set-B event tables with their patient
/// columns (used by metrics and benches).
std::vector<std::pair<std::string, std::string>> DataSetAEventTables();
std::vector<std::pair<std::string, std::string>> DataSetBEventTables();
std::vector<std::pair<std::string, std::string>> AllEventTables();

}  // namespace eba

#endif  // EBA_CAREWEB_GENERATOR_H_
