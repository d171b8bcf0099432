// The result oracle: expected results computed from the generated inputs
// alone (plain counting over the pool, no engine code), and the checker
// that compares a run's transcript of pushes and reader answers with them.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Order-independent digest of a multiset of canonical rows: the row count
/// and the wrapping sum of a 64-bit hash per row.
struct Digest {
  uint64_t sum = 0;
  int64_t rows = 0;
  void Add(const std::string& canonical_row);
  bool operator==(const Digest& o) const {
    return sum == o.sum && rows == o.rows;
  }
};

/// Canonical text of a received row: cells joined by '|'; integers and
/// integral doubles in decimal, timestamps as "T<micros>".
std::string CanonRow(const Row& row, size_t columns);

/// One received push, reduced to what the checker needs.
struct PushRecord {
  int cq = 0;
  int64_t close = 0;
  Digest digest;
  Digest report_digest;  // rows without their last column (report CQ only)
  std::string topk;       // canonical rows, '\n'-separated (top-k CQs only)
  int64_t arrival_ns = 0;
};

/// Canonical rows joined by '\n' — the compact form answers are kept in.
std::string CanonRows(const std::vector<Row>& rows);

PushRecord MakePushRecord(const Workload& w, int cq, int64_t close,
                          const std::vector<Row>& rows, int64_t arrival_ns);

/// One reader answer. `acked_lo`/`acked_hi` are the acknowledged batch
/// counts when the query was sent and when its answer arrived.
struct QueryRecord {
  QueryKind kind = QueryKind::kTopBoard;
  int64_t acked_lo = 0;
  int64_t acked_hi = 0;
  int64_t param = 0;  // close index, or src ip id
  int64_t param2 = 0;  // last acked row index (kSrcIpTotals)
  bool ok = false;
  std::string answer;  // canonical rows, '\n'-separated
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The reader's SQL for a query record's parameters.
std::string QuerySql(const Inputs& in, const QueryRecord& q);

/// Fills `q` (kind, params) for the reader's `seq`-th query given the
/// acknowledged batch count; returns false when the query cannot be
/// answered yet (no window closed).
bool PlanQuery(const Inputs& in, int64_t seq, int64_t acked, QueryRecord* q);

/// Server counters the checker reconciles with the transcript.
struct ServerTotals {
  int64_t rows_ingested = -1;
  int64_t archive_rows = -1;  // count(*) of conn_log (dashboard)
  int64_t pushes_shed = -1;
  int64_t pushes_disconnected = -1;
  std::vector<int64_t> windows_closed;  // per subscribed CQ
};

struct CheckResult {
  bool correct = true;
  int64_t missing_pushes = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& why);
};

/// Checks every push, every reader answer and every conservation identity.
/// `totals` may be null (in-process self-test), which skips the server
/// counter reconciliation.
CheckResult CheckRun(const Inputs& in, int64_t rows_acked,
                     const std::vector<PushRecord>& pushes,
                     const std::vector<QueryRecord>& queries,
                     const ServerTotals* totals);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
