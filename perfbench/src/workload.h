// Workload definitions for the loopback benchmark: input generation from a
// seed, the DDL each workload loads into the server, and the derived
// streams the subscriber receives.
//
// Inputs are a pool of pre-generated batches whose row contents are fixed
// at start-up. The ingest client cycles through the pool and stamps each
// row's timestamp from its global row index k:
//   ts(k) = base + floor(k * 1e6 / rows_per_logical_second)
// so timestamps strictly increase and the window close at base + n seconds
// is crossed exactly by row n * rows_per_logical_second. Everything the
// oracle needs is a pure function of the pool and k.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"

namespace perfbench {

using streamrel::Row;

enum class WorkloadKind { kFirehose, kJellybean, kDashboard };

/// What a subscribed derived stream computes, as far as the oracle cares.
/// Every window is VISIBLE `visible_s` seconds with ADVANCE 1 second.
enum class CqKind {
  kCountByUrl,       // (url, c)
  kCountByUrlStime,  // (url, c, stime)
  kMinMaxTsByUrl,    // (url, min(atime), max(atime))
  kCountMinMaxIp,    // (url, c, min(client_ip), max(client_ip))
  kIpCountFiltered,  // (client_ip, c) over rows with url = kFilterUrl
  kTopUrls,          // (url, c, stime) ORDER BY c DESC LIMIT top_k
  kPortCountSum,     // (dst_port, c, b, stime)
};

struct CqSpec {
  std::string name;  // derived stream name (subscribed)
  CqKind kind;
  int visible_s;
  int top_k = 0;
};

/// Reader query kinds.
enum class QueryKind {
  kTopBoard,     // top-10 APPEND active table at one acked close
  kTopPorts,     // dashboard: top ports of the REPLACE board
  kBoardJoin,    // dashboard: board joined with port_service
  kSrcIpTotals,  // dashboard: indexed per-src_ip count/sum up to acked ts
  kWindowReport  // dashboard: store-first report for one closed window
};

inline constexpr int kUrlCardinality = 200;
inline constexpr int kFilterUrl = 3;  // "/page/3"
inline constexpr int kNumPorts = 32;
inline constexpr int kServicePorts = 24;  // ports with a service name
inline constexpr int kTopPortsLimit = 5;
inline constexpr int kBoardTopK = 10;
/// 2009-01-05 00:00:00 UTC: the paper's example day, whole-second aligned.
inline constexpr int64_t kBaseMicros = 1231113600LL * 1000000LL;

struct Workload {
  WorkloadKind kind;
  std::string name;
  std::string stream;     // raw stream ingested
  int ts_column;          // CQTIME column index in the stream's rows
  int64_t batch_rows;
  int64_t rows_per_sec;   // logical rows per second of event time
  std::string init_sql;   // DDL run by the server's --init
  std::vector<CqSpec> cqs;
  std::vector<QueryKind> queries;  // the reader cycles through these
  /// Subscribed CQ whose pushes must equal kWindowReport answers.
  int report_cq = -1;
  /// VISIBLE seconds of the top-k stream feeding top_board (kTopBoard).
  int board_visible_s = 0;
  /// The reader's pause between an answer and its next query; 0 = back to
  /// back.
  int64_t reader_pause_micros = 0;

  /// Close n (n >= 1) of every 1 s window is crossed by row n * rows_per_sec.
  int64_t CloseMicros(int64_t n) const { return kBaseMicros + n * 1000000; }
  int64_t RowTs(int64_t k) const {
    return kBaseMicros + k * 1000000 / rows_per_sec;
  }
  /// Closes crossed once rows [0, rows) are ingested.
  int64_t ClosesAfterRows(int64_t rows) const {
    return rows <= 0 ? 0 : (rows - 1) / rows_per_sec;
  }
  /// Index of the batch carrying the row that crosses close n.
  int64_t ClosingBatch(int64_t n) const {
    return n * rows_per_sec / batch_rows;
  }
};

Workload MakeWorkload(const std::string& name, bool* ok);

std::string UrlName(int url_id);
std::string PortService(int port_index);
extern const int64_t kPorts[kNumPorts];

/// The generated input pool.
struct Inputs {
  const Workload* workload = nullptr;
  std::vector<std::vector<Row>> pool;  // batches sent over the wire
  // Compact per-row content for the oracle, indexed [batch][row].
  std::vector<std::vector<int32_t>> key;   // url id / dst_port index
  std::vector<std::vector<int32_t>> aux;   // client ip id / src ip id
  std::vector<std::vector<int64_t>> val;   // bytes (dashboard)
  std::vector<std::string> ip_names;       // id -> client_ip / src_ip text

  int64_t pool_batches() const { return static_cast<int64_t>(pool.size()); }
  /// Pool slot and row of global row k.
  size_t Slot(int64_t k) const {
    return static_cast<size_t>((k / workload->batch_rows) %
                               pool_batches());
  }
  size_t Pos(int64_t k) const {
    return static_cast<size_t>(k % workload->batch_rows);
  }
  /// Stamps batch `i`'s timestamps into its pool slot and returns it.
  std::vector<Row>& Stamp(int64_t i);
};

Inputs Generate(const Workload& workload, uint64_t seed);

/// SQL timestamp literal for `micros`, e.g. TIMESTAMP '2009-01-05 00:00:01'.
std::string TsLiteral(int64_t micros);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
