#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <random>

#include "common/value.h"

namespace perfbench {

using streamrel::Value;

const int64_t kPorts[kNumPorts] = {
    80,   443,  22,   53,    25,    110,  143,  8080, 3306, 5432, 6379,
    27017, 21,  23,   3389,  5900,  8443, 9200, 11211, 993, 995,  587,
    465,  389,  636,  1433,  1521,  2049, 161,  123,  514,  9092};

namespace {

const char* kServices[kServicePorts] = {
    "http",  "https", "ssh",   "dns",   "smtp",  "pop3",
    "imap",  "http-alt", "mysql", "postgres", "redis", "mongodb",
    "ftp",   "telnet", "rdp",  "vnc",   "https-alt", "elastic",
    "memcached", "imaps", "pop3s", "submission", "smtps", "ldap"};

/// Zipf sampler over [0, n) by inverse CDF; deterministic for a seed
/// because it draws raw 64-bit words, not a library distribution.
class Zipf {
 public:
  Zipf(int n, double skew) {
    double total = 0;
    for (int i = 1; i <= n; ++i) total += 1.0 / std::pow(i, skew);
    double acc = 0;
    for (int i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(i, skew) / total;
      cdf_.push_back(acc);
    }
    cdf_.back() = 1.0;
  }
  int Next(std::mt19937_64& rng) const {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    return static_cast<int>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string ClickDdl() {
  return "CREATE STREAM clicks (url varchar(1024), "
         "atime timestamp CQTIME USER, client_ip varchar(50));\n";
}

std::string SlidingFrom(const std::string& stream, int visible_s) {
  return " FROM " + stream + " <VISIBLE '" + std::to_string(visible_s) +
         " seconds' ADVANCE '1 second'>";
}

std::string CqSql(const CqSpec& cq, const std::string& stream) {
  const std::string from = SlidingFrom(stream, cq.visible_s);
  switch (cq.kind) {
    case CqKind::kCountByUrl:
      return "SELECT url, count(*) AS c" + from + " GROUP BY url";
    case CqKind::kCountByUrlStime:
      return "SELECT url, count(*) AS c, cq_close(*) AS stime" + from +
             " GROUP BY url";
    case CqKind::kMinMaxTsByUrl:
      return "SELECT url, min(atime) AS lo, max(atime) AS hi" + from +
             " GROUP BY url";
    case CqKind::kCountMinMaxIp:
      return "SELECT url, count(*) AS c, min(client_ip) AS lo_ip, "
             "max(client_ip) AS hi_ip" +
             from + " GROUP BY url";
    case CqKind::kIpCountFiltered:
      return "SELECT client_ip, count(*) AS c" + from + " WHERE url = '" +
             UrlName(kFilterUrl) + "' GROUP BY client_ip";
    case CqKind::kTopUrls:
      return "SELECT url, count(*) AS c, cq_close(*) AS stime" + from +
             " GROUP BY url ORDER BY c DESC LIMIT " +
             std::to_string(cq.top_k);
    case CqKind::kPortCountSum:
      return "SELECT dst_port, count(*) AS c, sum(bytes) AS b, "
             "cq_close(*) AS stime" +
             from + " GROUP BY dst_port";
  }
  return "";
}

/// The small APPEND active table the reader polls, fed by a top-k stream.
std::string TopBoardDdl(const std::string& source) {
  return "CREATE TABLE top_board (url varchar(1024), c bigint, "
         "stime timestamp);\n"
         "CREATE INDEX top_board_stime ON top_board (stime);\n"
         "CREATE CHANNEL top_ch FROM " +
         source + " INTO top_board APPEND;\n";
}

std::string DerivedDdl(const std::vector<CqSpec>& cqs,
                       const std::string& stream) {
  std::string sql;
  for (const CqSpec& cq : cqs) {
    sql += "CREATE STREAM " + cq.name + " AS " + CqSql(cq, stream) + ";\n";
  }
  return sql;
}

}  // namespace

std::string UrlName(int url_id) { return "/page/" + std::to_string(url_id); }

std::string PortService(int port_index) { return kServices[port_index]; }

Workload MakeWorkload(const std::string& name, bool* ok) {
  Workload w;
  *ok = true;
  w.name = name;
  if (name == "firehose") {
    // Tiny per-row engine work; the wire and dispatch dominate.
    w.kind = WorkloadKind::kFirehose;
    w.stream = "clicks";
    w.ts_column = 1;
    w.batch_rows = 256;
    w.rows_per_sec = 4096;
    w.cqs = {{"url_counts", CqKind::kCountByUrlStime, 1}};
    w.init_sql =
        ClickDdl() + DerivedDdl(w.cqs, "clicks") +
        "CREATE STREAM top_urls AS SELECT url, c, stime FROM url_counts "
        "<SLICES 1 WINDOWS> ORDER BY c DESC LIMIT " +
        std::to_string(kBoardTopK) +
        ";\n" +
        TopBoardDdl("top_urls");
    w.queries = {QueryKind::kTopBoard};
    w.board_visible_s = 1;
  } else if (name == "jellybean") {
    // Sixteen CQs share one pass over the stream; big pushes per close.
    w.kind = WorkloadKind::kJellybean;
    w.stream = "clicks";
    w.ts_column = 1;
    w.batch_rows = 2048;
    w.rows_per_sec = 3072;
    for (int v = 1; v <= 8; ++v) {
      w.cqs.push_back({"jb_cnt_" + std::to_string(v), CqKind::kCountByUrl, v});
    }
    for (int v : {2, 4, 6, 8}) {
      w.cqs.push_back(
          {"jb_mm_" + std::to_string(v), CqKind::kMinMaxTsByUrl, v});
    }
    w.cqs.push_back({"jb_ipmm_3", CqKind::kCountMinMaxIp, 3});
    w.cqs.push_back({"jb_ip_2", CqKind::kIpCountFiltered, 2});
    w.cqs.push_back({"jb_ip_3", CqKind::kIpCountFiltered, 3});
    w.cqs.push_back({"jb_top_5", CqKind::kTopUrls, 5, kBoardTopK});
    w.init_sql = ClickDdl() + "SET PARALLELISM 2;\n" +
                 DerivedDdl(w.cqs, "clicks") + TopBoardDdl("jb_top_5");
    w.queries = {QueryKind::kTopBoard};
    w.board_visible_s = 5;
  } else if (name == "dashboard") {
    // Reads beside writes on the same tables: archive, REPLACE board,
    // indexes, WAL and the planner.
    w.kind = WorkloadKind::kDashboard;
    w.stream = "conns";
    w.ts_column = 3;
    w.batch_rows = 256;
    w.rows_per_sec = 512;
    w.cqs = {{"port_stats", CqKind::kPortCountSum, 10}};
    w.report_cq = 0;
    std::string services;
    for (int i = 0; i < kServicePorts; ++i) {
      services += (i ? ", (" : "(") + std::to_string(kPorts[i]) + ", '" +
                  kServices[i] + "')";
    }
    w.init_sql =
        "CREATE STREAM conns (src_ip varchar, dst_port bigint, "
        "bytes bigint, ts timestamp CQTIME USER);\n"
        "CREATE TABLE conn_log (src_ip varchar, dst_port bigint, "
        "bytes bigint, ts timestamp);\n"
        "CREATE INDEX conn_log_src ON conn_log (src_ip);\n"
        "CREATE INDEX conn_log_ts ON conn_log (ts);\n"
        "CREATE CHANNEL conn_archive FROM conns INTO conn_log APPEND;\n" +
        DerivedDdl(w.cqs, "conns") +
        "CREATE TABLE port_board (dst_port bigint, c bigint, b bigint, "
        "stime timestamp);\n"
        "CREATE CHANNEL port_ch FROM port_stats INTO port_board REPLACE;\n"
        "CREATE TABLE port_service (port bigint, service varchar);\n"
        "INSERT INTO port_service VALUES " +
        services + ";\n";
    w.queries = {QueryKind::kTopPorts, QueryKind::kBoardJoin,
                 QueryKind::kSrcIpTotals, QueryKind::kWindowReport};
    // Back to back, these scans hold conn_log long enough to cut ingest by
    // a third, and the rate then follows the query mix from run to run.
    w.reader_pause_micros = 1000;
  } else {
    *ok = false;
  }
  return w;
}

std::vector<Row>& Inputs::Stamp(int64_t i) {
  std::vector<Row>& batch =
      pool[static_cast<size_t>(i % pool_batches())];
  const int col = workload->ts_column;
  int64_t k = i * workload->batch_rows;
  for (Row& row : batch) row[col] = Value::Timestamp(workload->RowTs(k++));
  return batch;
}

Inputs Generate(const Workload& workload, uint64_t seed) {
  Inputs in;
  in.workload = &workload;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  // Pool sizes are primes, so window contents do not repeat with a short
  // period and a push from the wrong window cannot match by accident.
  const bool clicks = workload.kind != WorkloadKind::kDashboard;
  const int64_t batches = workload.kind == WorkloadKind::kJellybean ? 61
                                                                    : 251;
  const int ip_hi = clicks ? 16 : 64;
  for (int a = 0; a < ip_hi; ++a) {
    for (int b = 0; b < 256; ++b) {
      in.ip_names.push_back((clicks ? "10.0." : "192.168.") +
                            std::to_string(a) + "." + std::to_string(b));
    }
  }
  Zipf urls(kUrlCardinality, 1.07);
  Zipf ports(kNumPorts, 1.2);
  in.pool.resize(batches);
  in.key.resize(batches);
  in.aux.resize(batches);
  in.val.resize(batches);
  for (int64_t i = 0; i < batches; ++i) {
    for (int64_t j = 0; j < workload.batch_rows; ++j) {
      const int32_t ip = static_cast<int32_t>(rng() % in.ip_names.size());
      if (clicks) {
        const int url = urls.Next(rng);
        in.pool[i].push_back(Row{Value::String(UrlName(url)),
                                 Value::Timestamp(0),
                                 Value::String(in.ip_names[ip])});
        in.key[i].push_back(url);
        in.val[i].push_back(0);
      } else {
        const int port = ports.Next(rng);
        const int64_t bytes = 64 + static_cast<int64_t>(rng() % 8192);
        in.pool[i].push_back(Row{Value::String(in.ip_names[ip]),
                                 Value::Int64(kPorts[port]),
                                 Value::Int64(bytes), Value::Timestamp(0)});
        in.key[i].push_back(port);
        in.val[i].push_back(bytes);
      }
      in.aux[i].push_back(ip);
    }
  }
  return in;
}

std::string TsLiteral(int64_t micros) {
  const time_t secs = static_cast<time_t>(micros / 1000000);
  const int64_t frac = micros % 1000000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "TIMESTAMP '%04d-%02d-%02d %02d:%02d:%02d.%06lld'",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<long long>(frac));
  return buf;
}

}  // namespace perfbench
