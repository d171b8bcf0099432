// perfbench_driver: the loopback benchmark of streamrel-server.
//
//   perfbench_driver --server PATH --workload NAME --seed N --seconds S
//                    --trace 0|1 --out DIR
//   perfbench_driver --selftest
//
// Generates the workload's inputs from the seed, then starts
// streamrel-server as its own process with the workload's DDL (--init) and
// drives it over loopback with three clients, each on its own connection
// and thread: a closed-loop ingest client (next batch only after the
// previous one is acknowledged), a subscriber to the derived streams, and
// a closed-loop reader of the active tables. Ingest runs for a warm-up
// and then for the measured --seconds; every push and every reader answer
// of the whole run is checked against the oracle (oracle.h). The last line
// of stdout is one JSON object: correct, attempted, failed and the metrics.
//
// --trace 1 is the per-layer run: the same loopback run with a span around
// every client call and SHOW STATS deltas over the ingest phase, followed
// by an in-process replay of the same inputs through the library's public
// functions, one span per call. Spans go to DIR/trace_<workload>_<seed>.json.
//
// --selftest runs a short in-process workload, feeds the checker the true
// transcript and four corrupted ones, and exits 0 only if the true one
// passes and every corruption is caught.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "net/client.h"
#include "net/protocol.h"
#include "oracle.h"
#include "sql/parser.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using streamrel::Result;
using streamrel::Status;
using streamrel::Value;
namespace net = streamrel::net;

constexpr int64_t kSecNs = 1'000'000'000;
constexpr int64_t kRpcTimeoutMicros = 10'000'000;
/// After ingest stops, how long the subscriber may take to drain pushes.
constexpr int64_t kPushDrainNs = 15 * kSecNs;
/// Ingest runs this long before the measured --seconds start. Throughput
/// falls for the first seconds of every run while the server's tables and
/// queues grow to their working size; samples from that phase are checked
/// by the oracle but not reported.
constexpr int64_t kWarmupSeconds = 5;

struct Args {
  std::string workload;
  std::string server;
  std::string out = ".";
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--selftest") {
      a->selftest = true;
    } else if (arg == "--workload" && next(&v)) {
      a->workload = v;
    } else if (arg == "--server" && next(&v)) {
      a->server = v;
    } else if (arg == "--out" && next(&v)) {
      a->out = v;
    } else if (arg == "--seed" && next(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && next(&v)) {
      a->seconds = std::atoi(v.c_str());
    } else if (arg == "--trace" && next(&v)) {
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && !a->server.empty() &&
                         a->seconds >= 1 && a->seconds <= 120);
}

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// SHOW STATS as "scope/name/metric" -> value (NULL gauges omitted).
using Stats = std::map<std::string, int64_t>;

Result<Stats> ReadStats(net::Client* client) {
  auto rs = client->Query("SHOW STATS", kRpcTimeoutMicros);
  if (!rs.ok()) return rs.status();
  Stats stats;
  for (const Row& row : rs->rows) {
    if (row.size() != 4 || row[3].is_null()) continue;
    stats[row[0].AsString() + "/" + row[1].AsString() + "/" +
          row[2].AsString()] = row[3].AsInt64();
  }
  return stats;
}

int64_t Get(const Stats& s, const std::string& key, int64_t missing = 0) {
  auto it = s.find(key);
  return it == s.end() ? missing : it->second;
}

/// Sum of scope/*/metric over every object of the scope.
int64_t SumOver(const Stats& s, const std::string& scope,
                const std::string& metric) {
  int64_t total = 0;
  const std::string prefix = scope + "/";
  const std::string suffix = "/" + metric;
  for (auto it = s.lower_bound(prefix);
       it != s.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string& k = it->first;
    if (k.size() > suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        k.find('/', prefix.size()) == k.size() - suffix.size()) {
      total += it->second;
    }
  }
  return total;
}

// --- the server process -----------------------------------------------------

/// streamrel-server as a child process; killed and reaped on destruction
/// if still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for its "listening on H:P" line.
  Status Launch(const std::string& binary, const std::string& init_file) {
    int fds[2];
    if (pipe(fds) < 0) return Status::Internal("pipe failed");
    pid_ = fork();
    if (pid_ < 0) return Status::Internal("fork failed");
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(binary.c_str(), binary.c_str(), "--port", "0", "--init",
            init_file.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    std::string text;
    const int64_t deadline = NowNs() + 30 * kSecNs;
    while (NowNs() < deadline) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::Internal("server exited during start-up");
      text.append(buf, static_cast<size_t>(n));
      const size_t at = text.find("listening on ");
      const size_t eol = text.find('\n', at);
      if (at != std::string::npos && eol != std::string::npos) {
        const size_t colon = text.rfind(':', eol);
        port_ = static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
        return Status::OK();
      }
    }
    return Status::Internal("server did not report its port");
  }

  uint16_t port() const { return port_; }

  /// VmHWM (peak resident set) of the server, in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM (graceful drain), then SIGKILL if it has not exited in 10 s.
  bool Stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 10 * kSecNs;
    int status = 0;
    while (NowNs() < deadline) {
      // Keep reading the server's stdout so its drain message cannot block.
      pollfd pfd{out_fd_, POLLIN, 0};
      char buf[256];
      if (poll(&pfd, 1, 0) > 0 && read(out_fd_, buf, sizeof(buf)) < 0) {
        break;
      }
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return false;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// --- the loopback run -------------------------------------------------------

struct LoopbackRun {
  int64_t setup_ns = 0;
  int64_t ingest_ns = 0;         // whole ingest phase, warm-up included
  int64_t measure_start_ns = 0;  // end of the warm-up
  int64_t ingest_end_ns = 0;
  int64_t batches_acked = 0;
  int64_t batches_failed = 0;
  std::vector<int64_t> send_ns;  // per batch
  std::vector<int64_t> rpc_ns;   // per acknowledged batch
  std::vector<PushRecord> pushes;
  std::vector<QueryRecord> queries;
  Stats before, after;
  ServerTotals totals;
  double rss_mb = 0;
  Tracer ingest_trace{false}, push_trace{false}, query_trace{false};

  /// Keeps the first error any of the three client threads reports.
  void SetError(const std::string& why) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error.empty()) error = why;
  }
  std::mutex error_mu;
  std::string error;  // guarded by error_mu while the clients run
};

void IngestLoop(Inputs* in, net::Client* client, int64_t seconds,
                std::atomic<int64_t>* acked, LoopbackRun* run) {
  const Workload& w = *in->workload;
  Tracer& tr = run->ingest_trace;
  const int64_t start = NowNs();
  run->measure_start_ns = start + kWarmupSeconds * kSecNs;
  const int64_t deadline = run->measure_start_ns + seconds * kSecNs;
  for (int64_t i = 0; NowNs() < deadline; ++i) {
    std::vector<Row>& batch = in->Stamp(i);
    const int span = tr.Begin(kSpanIngestRpc, i);
    const int64_t t0 = NowNs();
    run->send_ns.push_back(t0);
    const Status st =
        client->IngestBatch(w.stream, batch, INT64_MIN, kRpcTimeoutMicros);
    const int64_t t1 = NowNs();
    tr.End(span);
    if (!st.ok()) {
      run->batches_failed += 1;
      run->SetError("ingest batch " + std::to_string(i) + ": " +
                    st.ToString());
      break;
    }
    run->rpc_ns.push_back(t1 - t0);
    acked->store(i + 1, std::memory_order_release);
  }
  run->ingest_end_ns = NowNs();
  run->ingest_ns = run->ingest_end_ns - start;
  run->batches_acked = acked->load();
}

void SubscribeLoop(const Workload& w, net::Client* client,
                   const std::atomic<bool>* stop,
                   std::atomic<int64_t>* received, LoopbackRun* run) {
  std::unordered_map<std::string, int> index;
  for (size_t c = 0; c < w.cqs.size(); ++c) {
    index[w.cqs[c].name] = static_cast<int>(c);
  }
  Tracer& tr = run->push_trace;
  while (!stop->load(std::memory_order_acquire)) {
    const int span = tr.Begin(kSpanPushWait, -1);
    auto push = client->NextPush(20'000);
    const int64_t now = NowNs();
    tr.End(span);
    if (!push.ok()) {
      if (!client->connected()) {
        run->SetError("subscriber lost its connection: " +
                      push.status().ToString());
        return;
      }
      continue;
    }
    tr.SetId(span, push->close);
    auto it = index.find(streamrel::ToLower(push->source));
    if (it == index.end()) {
      run->SetError("push from unknown source " + push->source);
      return;
    }
    run->pushes.push_back(
        MakePushRecord(w, it->second, push->close, push->rows, now));
    received->fetch_add(1, std::memory_order_release);
  }
}

void ReadLoop(const Inputs& in, net::Client* client,
              const std::atomic<int64_t>* acked,
              const std::atomic<bool>* done, LoopbackRun* run) {
  if (in.workload->queries.empty()) return;
  Tracer& tr = run->query_trace;
  for (int64_t seq = 0; !done->load(std::memory_order_acquire);) {
    QueryRecord q;
    if (!PlanQuery(in, seq, acked->load(std::memory_order_acquire), &q)) {
      usleep(200);
      continue;
    }
    const std::string sql = QuerySql(in, q);
    const int span = tr.Begin(kSpanQueryRpc, seq);
    q.start_ns = NowNs();
    auto rs = client->Query(sql, kRpcTimeoutMicros);
    q.end_ns = NowNs();
    tr.End(span);
    q.acked_hi = acked->load(std::memory_order_acquire);
    q.ok = rs.ok();
    if (rs.ok()) {
      q.answer = CanonRows(rs->rows);
    } else {
      run->SetError("query failed: " + rs.status().ToString());
    }
    run->queries.push_back(std::move(q));
    ++seq;
    if (in.workload->reader_pause_micros > 0) {
      usleep(static_cast<useconds_t>(in.workload->reader_pause_micros));
    }
  }
}

/// Runs the whole loopback benchmark; returns false (with run->error) on a
/// set-up failure, when there is nothing to report.
bool RunLoopback(const Args& args, Inputs* in, LoopbackRun* run) {
  const Workload& w = *in->workload;
  const std::string init_file = args.out + "/init_" + w.name + "_" +
                                std::to_string(getpid()) + ".sql";
  {
    std::ofstream f(init_file);
    f << w.init_sql;
    if (!f) {
      run->error = "cannot write " + init_file;
      return false;
    }
  }
  ServerProcess server;
  net::Client ingest, subscriber, reader;
  const int64_t t0 = NowNs();
  Status st = server.Launch(args.server, init_file);
  if (st.ok()) st = ingest.Connect("127.0.0.1", server.port());
  if (st.ok()) st = subscriber.Connect("127.0.0.1", server.port());
  if (st.ok()) st = reader.Connect("127.0.0.1", server.port());
  for (size_t c = 0; st.ok() && c < w.cqs.size(); ++c) {
    st = subscriber.Subscribe(w.cqs[c].name, kRpcTimeoutMicros);
  }
  run->setup_ns = NowNs() - t0;
  std::remove(init_file.c_str());
  if (!st.ok()) {
    run->error = "set-up failed: " + st.ToString();
    return false;
  }
  if (args.trace) {
    auto stats = ReadStats(&reader);
    if (!stats.ok()) {
      run->error = "SHOW STATS failed: " + stats.status().ToString();
      return false;
    }
    run->before = *stats;
  }

  std::atomic<int64_t> acked{0}, received{0};
  std::atomic<bool> ingest_done{false}, stop_subscriber{false};
  std::thread sub_thread(SubscribeLoop, std::cref(w), &subscriber,
                         &stop_subscriber, &received, run);
  std::thread read_thread(ReadLoop, std::cref(*in), &reader, &acked,
                          &ingest_done, run);
  IngestLoop(in, &ingest, args.seconds, &acked, run);
  ingest_done.store(true, std::memory_order_release);
  read_thread.join();
  const int64_t expected =
      w.ClosesAfterRows(run->batches_acked * w.batch_rows) *
      static_cast<int64_t>(w.cqs.size());
  const int64_t drain_deadline = NowNs() + kPushDrainNs;
  while (received.load(std::memory_order_acquire) < expected &&
         NowNs() < drain_deadline) {
    usleep(1000);
  }
  stop_subscriber.store(true, std::memory_order_release);
  sub_thread.join();

  auto stats = ReadStats(&reader);
  if (!stats.ok()) {
    run->error = "SHOW STATS failed: " + stats.status().ToString();
    return false;
  }
  run->after = *stats;
  // A counter missing from SHOW STATS reads -1 and fails its check.
  run->totals.rows_ingested =
      Get(run->after, "engine/runtime/rows_ingested", -1);
  run->totals.pushes_shed =
      Get(run->after, "net/subscriptions/pushes_shed", -1);
  run->totals.pushes_disconnected =
      Get(run->after, "net/subscriptions/pushes_disconnected", -1);
  for (const CqSpec& cq : w.cqs) {
    run->totals.windows_closed.push_back(
        Get(run->after, "cq/$derived$" + cq.name + "/windows_closed", -1));
  }
  if (w.kind == WorkloadKind::kDashboard) {
    auto rs = reader.Query("SELECT count(*) FROM conn_log", kRpcTimeoutMicros);
    if (rs.ok() && rs->rows.size() == 1) {
      run->totals.archive_rows = rs->rows[0][0].AsInt64();
    }
  }
  run->rss_mb = server.PeakRssMb();
  ingest.Close();
  subscriber.Close();
  reader.Close();
  if (!server.Stop()) run->SetError("server did not drain cleanly");
  return true;
}

// --- in-process replay (traced run and self-test) ---------------------------

struct RawPush {
  int cq;
  int64_t close;
  std::vector<Row> rows;
};

struct Replay {
  int64_t batches = 0;
  int64_t rows = 0;
  int64_t payload_bytes = 0;
  int64_t push_rows = 0;
  int64_t windows_closed = 0;
  uint32_t checksums = 0;  // xor of every checksum, so none is optimized out
  std::vector<int64_t> open_batch;  // per batch: 1 if it closed no window
  std::vector<RawPush> raw;
  std::vector<QueryRecord> queries;
  std::string error;
};

/// Feeds batches [0, max_batches) through the wire codec and an in-process
/// Database, one span per library call; stops early after `budget_ns`.
void ReplayInProcess(Inputs* in, int64_t max_batches, int64_t budget_ns,
                     bool keep_raw, Tracer* tr, Replay* out) {
  const Workload& w = *in->workload;
  streamrel::engine::Database db;
  auto init = db.Execute(w.init_sql);
  if (!init.ok()) {
    out->error = "replay DDL: " + init.status().ToString();
    return;
  }
  for (size_t c = 0; c < w.cqs.size(); ++c) {
    const std::string name = w.cqs[c].name;
    auto ticket = db.Subscribe(
        name, [&, c, name](int64_t close, const std::vector<Row>& rows) {
          {
            ScopedSpan span(tr, kSpanPushEncode, close);
            net::StreamRowsBody body;
            body.source = name;
            body.close = close;
            body.rows = rows;
            std::string bytes;
            net::EncodeFrame(net::Frame{net::FrameType::kStreamRows, 1,
                                        net::EncodeStreamRowsBody(body)},
                             &bytes);
            out->push_rows += static_cast<int64_t>(rows.size());
          }
          if (keep_raw) out->raw.push_back({static_cast<int>(c), close, rows});
          return Status::OK();
        });
    if (!ticket.ok()) {
      out->error = "replay subscribe: " + ticket.status().ToString();
      return;
    }
  }
  const int64_t deadline = NowNs() + budget_ns;
  net::IngestBatchRequest req;
  req.stream = w.stream;
  std::string wire;
  for (int64_t i = 0; i < max_batches && NowNs() < deadline; ++i) {
    std::vector<Row>& batch = in->Stamp(i);
    req.rows.swap(batch);
    wire.clear();
    {
      ScopedSpan span(tr, kSpanFrameEncode, i);
      net::EncodeFrame(net::Frame{net::FrameType::kIngestBatch,
                                  static_cast<uint64_t>(i + 1),
                                  net::EncodeIngestBody(req)},
                       &wire);
    }
    req.rows.swap(batch);
    {
      ScopedSpan span(tr, kSpanChecksum, i);
      out->checksums ^= net::Fnv1a(wire.data() + net::kFrameHeaderBytes,
                                   wire.size() - net::kFrameHeaderBytes);
    }
    out->payload_bytes +=
        static_cast<int64_t>(wire.size() - net::kFrameHeaderBytes);
    net::IngestColumnarRequest creq;
    bool decoded = false;
    {
      ScopedSpan span(tr, kSpanFrameDecode, i);
      size_t offset = 0;
      net::Frame frame;
      std::string err;
      if (net::TryDecodeFrame(wire, &offset, &frame, &err) ==
          net::DecodeStatus::kFrame) {
        auto ok = net::DecodeIngestBodyColumnar(frame.body, &creq);
        decoded = ok.ok() && *ok;
      }
    }
    if (!decoded) {
      out->error = "replay: batch " + std::to_string(i) + " did not decode";
      return;
    }
    Status st;
    {
      ScopedSpan span(tr, kSpanEngineIngest, i);
      st = db.Ingest(creq.stream, std::move(creq.batch), creq.system_time);
    }
    if (!st.ok()) {
      out->error = "replay ingest: " + st.ToString();
      return;
    }
    const int64_t closes = w.ClosesAfterRows((i + 1) * w.batch_rows) -
                           w.ClosesAfterRows(i * w.batch_rows);
    out->open_batch.push_back(closes == 0 ? 1 : 0);
    out->batches = i + 1;
    out->rows += w.batch_rows;
    QueryRecord q;
    if (!w.queries.empty() && PlanQuery(*in, i, i + 1, &q)) {
      const std::string sql = QuerySql(*in, q);
      {
        ScopedSpan span(tr, kSpanParse, i);
        auto parsed = streamrel::sql::ParseSingleStatement(sql);
        if (!parsed.ok()) {
          out->error = "replay parse: " + parsed.status().ToString();
          return;
        }
      }
      q.acked_hi = i + 1;
      q.start_ns = NowNs();
      Result<streamrel::engine::QueryResult> rs = [&] {
        ScopedSpan span(tr, kSpanExecute, i);
        return db.Execute(sql);
      }();
      q.end_ns = NowNs();
      q.ok = rs.ok();
      if (rs.ok()) q.answer = CanonRows(rs->rows);
      out->queries.push_back(std::move(q));
    }
  }
  const auto stats = db.StatsSnapshot();
  for (const auto& m : stats.metrics) {
    if (m.scope == "cq" && m.metric == "windows_closed") {
      out->windows_closed += m.value;
    }
  }
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[320];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The median of a percentile taken in each third of the measured phase:
/// a few seconds of load from elsewhere on the host move one third's
/// figure, not the reported one.
double MedianOfThirds(const std::vector<std::vector<double>>& parts,
                      double p) {
  std::vector<double> each;
  for (const auto& samples : parts) each.push_back(Percentile(samples, p));
  return Percentile(each, 50);
}

/// Ingest throughput: the median over the measured phase's whole seconds
/// of the rows acknowledged in each. A median of many intervals keeps a
/// burst of load from elsewhere on the host out of the figure.
double MedianIntervalRate(const LoopbackRun& run, int64_t batch_rows) {
  std::vector<double> acked(
      static_cast<size_t>((run.ingest_end_ns - run.measure_start_ns) / kSecNs),
      0.0);
  for (size_t i = 0; i < run.rpc_ns.size(); ++i) {
    const int64_t at = run.send_ns[i] + run.rpc_ns[i] - run.measure_start_ns;
    if (at >= 0 && static_cast<size_t>(at / kSecNs) < acked.size()) {
      acked[at / kSecNs] += static_cast<double>(batch_rows);
    }
  }
  return Percentile(acked, 50);
}

/// Per-layer metrics from the traced loopback run and the replay spans.
std::vector<Metric> LayerMetrics(const Workload& w, const LoopbackRun& run,
                                 const Tracer& tr, const Replay& rep) {
  std::vector<int64_t> total(kSpanCount, 0);
  std::vector<double> ingest_total_ns, execute_ns;
  int64_t open_self = 0, open_rows = 0, close_self = 0, close_rows = 0;
  int64_t parses = 0;
  for (const Span& s : tr.spans()) {
    const int64_t d = s.end_ns - s.start_ns;
    total[s.name] += d;
    if (s.name == kSpanEngineIngest) {
      ingest_total_ns.push_back(static_cast<double>(d));
      if (rep.open_batch[s.id]) {
        open_self += s.self_ns();
        open_rows += w.batch_rows;
      } else {
        close_self += s.self_ns();
        close_rows += w.batch_rows;
      }
    } else if (s.name == kSpanExecute) {
      execute_ns.push_back(static_cast<double>(d));
    } else if (s.name == kSpanParse) {
      ++parses;
    }
  }
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double rows = static_cast<double>(rep.rows);
  const double open_ns_per_row = per(open_self, open_rows);
  const Stats& a = run.after;
  const Stats& b = run.before;
  auto delta = [&](const std::string& key) {
    return static_cast<double>(Get(a, key) - Get(b, key));
  };
  auto delta_sum = [&](const std::string& scope, const std::string& metric) {
    return static_cast<double>(SumOver(a, scope, metric) -
                               SumOver(b, scope, metric));
  };
  const double ingested = delta("engine/runtime/rows_ingested");
  const double closes = static_cast<double>(
      w.ClosesAfterRows(run.batches_acked * w.batch_rows));
  std::vector<double> rpc(run.rpc_ns.begin(), run.rpc_ns.end());
  const double ingest_s = static_cast<double>(run.ingest_ns) / 1e9;
  return {
      {"net.frame_encode_ns_per_row", per(total[kSpanFrameEncode], rows),
       "ns/row"},
      {"net.checksum_ns_per_kb",
       per(total[kSpanChecksum], rep.payload_bytes / 1024.0), "ns/KB"},
      {"net.frame_decode_ns_per_row", per(total[kSpanFrameDecode], rows),
       "ns/row"},
      {"net.push_encode_ns_per_row",
       per(total[kSpanPushEncode], static_cast<double>(rep.push_rows)),
       "ns/row"},
      {"net.wire_bytes_per_row", per(delta("net/server/bytes_in"), ingested),
       "B/row"},
      {"net.rpc_overhead_us_per_batch",
       (Percentile(rpc, 50) - Percentile(ingest_total_ns, 50)) / 1e3,
       "us/batch"},
      {"engine.ingest_open_ns_per_row", open_ns_per_row, "ns/row"},
      {"engine.window_close_us",
       per(close_self - open_ns_per_row * close_rows,
           static_cast<double>(rep.windows_closed)) / 1e3,
       "us/window"},
      {"stream.cq_eval_us_per_window",
       per(delta_sum("cq", "eval_micros_total"),
           delta_sum("cq", "windows_closed")),
       "us/window"},
      {"stream.absorbed_per_ingested_row",
       per(delta_sum("aggregator", "rows_absorbed"), ingested), "ratio"},
      {"stream.vectorized_row_share",
       per(delta("engine/vectorize/rows"), ingested), "ratio"},
      {"stream.shard_backpressure_waits",
       delta_sum("shard", "backpressure_waits"), "count"},
      {"storage.wal_bytes_per_row", per(delta("engine/wal/bytes"), ingested),
       "B/row"},
      {"storage.wal_records_per_window",
       per(delta("engine/wal/records"), closes), "records/window"},
      {"storage.heap_bytes_per_row",
       per(delta("engine/disk/bytes_written"), ingested), "B/row"},
      {"sql.parse_us_per_query",
       per(total[kSpanParse], static_cast<double>(parses)) / 1e3, "us"},
      {"exec.query_us_p50", Percentile(execute_ns, 50) / 1e3, "us"},
      {"common.lock_wait_us_per_s",
       per(delta("engine/lock/shared_wait_micros") +
               delta("engine/lock/exclusive_wait_micros"),
           ingest_s),
       "us/s"},
      {"common.lock_acquisitions_per_batch",
       per(delta("engine/lock/shared_acquisitions") +
               delta("engine/lock/exclusive_acquisitions") +
               delta("engine/lock/sys_acquisitions") +
               delta("engine/lock/shard_acquisitions") +
               delta("engine/lock/stream_acquisitions") +
               delta("engine/lock/dml_acquisitions"),
           static_cast<double>(run.batches_acked)),
       "count/batch"},
      {"common.governor_bytes_peak",
       static_cast<double>(Get(a, "overload/governor/bytes_peak")), "B"},
      {"traced.ingest_rows_per_s", MedianIntervalRate(run, w.batch_rows),
       "rows/s"},
  };
}

bool WriteTrace(const std::string& path, const Args& args,
                const LoopbackRun& run, const Tracer& replay) {
  std::string out = "{\"workload\": \"" + args.workload +
                    "\", \"seed\": " + std::to_string(args.seed) +
                    ", \"span_fields\": [\"name\", \"parent\", \"id\", "
                    "\"start_ns\", \"end_ns\"], \"span_names\": [";
  for (int i = 0; i < kSpanCount; ++i) {
    out += std::string(i ? ", " : "") + "\"" + SpanNameText(i) + "\"";
  }
  out += "], \"stats_delta\": {";
  bool first = true;
  for (const auto& [key, value] : run.after) {
    const int64_t d = value - Get(run.before, key);
    if (d == 0) continue;
    out += std::string(first ? "" : ", ") + "\"" + key +
           "\": " + std::to_string(d);
    first = false;
  }
  out += "}, \"threads\": {\"ingest\": ";
  run.ingest_trace.AppendJson(&out);
  out += ", \"subscriber\": ";
  run.push_trace.AppendJson(&out);
  out += ", \"reader\": ";
  run.query_trace.AppendJson(&out);
  out += ", \"replay\": ";
  replay.AppendJson(&out);
  out += "}}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

int RunBenchmark(const Args& args) {
  bool known = false;
  const Workload w = MakeWorkload(args.workload, &known);
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Inputs in = Generate(w, args.seed);
  LoopbackRun run;
  run.ingest_trace = Tracer(args.trace);
  run.push_trace = Tracer(args.trace);
  run.query_trace = Tracer(args.trace);
  if (!RunLoopback(args, &in, &run)) {
    std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
    return 1;
  }
  const int64_t rows_acked = run.batches_acked * w.batch_rows;
  const CheckResult check =
      CheckRun(in, rows_acked, run.pushes, run.queries, &run.totals);
  int64_t queries_failed = 0;
  for (const QueryRecord& q : run.queries) queries_failed += q.ok ? 0 : 1;
  const int64_t expected_pushes =
      w.ClosesAfterRows(rows_acked) * static_cast<int64_t>(w.cqs.size());
  const int64_t attempted = run.batches_acked + run.batches_failed +
                            expected_pushes +
                            static_cast<int64_t>(run.queries.size());
  const int64_t failed =
      run.batches_failed + check.missing_pushes + queries_failed;
  bool correct = check.correct;
  for (const std::string& e : check.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  if (!run.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
    correct = false;
  }

  // Latency samples by the measured third of the run they started in.
  const int64_t third =
      std::max<int64_t>(1, (run.ingest_end_ns - run.measure_start_ns) / 3);
  std::vector<std::vector<double>> fresh(3), latency(3);
  auto part = [&](int64_t t) {
    return t < run.measure_start_ns
               ? -1
               : std::min<int64_t>(2, (t - run.measure_start_ns) / third);
  };
  for (const PushRecord& p : run.pushes) {
    const int64_t n = (p.close - kBaseMicros) / 1000000;
    const int64_t b = w.ClosingBatch(n);
    if (n < 1 || b >= static_cast<int64_t>(run.send_ns.size())) continue;
    const int64_t k = part(run.send_ns[b]);
    if (k >= 0) fresh[k].push_back(Ms(p.arrival_ns - run.send_ns[b]));
  }
  for (const QueryRecord& q : run.queries) {
    const int64_t k = part(q.start_ns);
    if (q.ok && k >= 0) latency[k].push_back(Ms(q.end_ns - q.start_ns));
  }
  const double ingest_s = static_cast<double>(run.ingest_ns) / 1e9;
  const double ingest_rate = MedianIntervalRate(run, w.batch_rows);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %lld rows in %.2f s, %zu pushes, "
               "%zu queries, setup %.3f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(rows_acked), ingest_s,
               run.pushes.size(), run.queries.size(),
               static_cast<double>(run.setup_ns) / 1e9);

  if (!args.trace) {
    PrintResult(correct, attempted, failed,
                {{"setup_s", static_cast<double>(run.setup_ns) / 1e9, "s"},
                 {"ingest_rows_per_s", ingest_rate, "rows/s"},
                 {"freshness_p50_ms", MedianOfThirds(fresh, 50), "ms"},
                 {"freshness_p90_ms", MedianOfThirds(fresh, 90), "ms"},
                 {"query_p50_ms", MedianOfThirds(latency, 50), "ms"},
                 {"query_p90_ms", MedianOfThirds(latency, 90), "ms"},
                 {"server_rss_peak_mb", run.rss_mb, "MB"}});
    return 0;
  }

  Tracer replay_trace(true);
  Replay rep;
  ReplayInProcess(&in, run.batches_acked, args.seconds * kSecNs,
                  /*keep_raw=*/false, &replay_trace, &rep);
  if (!rep.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", rep.error.c_str());
    return 1;
  }
  const std::string path = args.out + "/trace_" + w.name + "_" +
                           std::to_string(args.seed) + ".json";
  if (!WriteTrace(path, args, run, replay_trace)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: trace written to %s (%lld batches replayed)\n",
               path.c_str(), static_cast<long long>(rep.batches));
  PrintResult(correct, attempted, failed,
              LayerMetrics(w, run, replay_trace, rep));
  return 0;
}

// --- self-test --------------------------------------------------------------

/// Runs the checker on a true in-process transcript and on four corrupted
/// copies of it; every corruption must be reported.
int SelfTest() {
  bool known = false;
  const Workload w = MakeWorkload("jellybean", &known);
  Inputs in = Generate(w, 7);
  Tracer off(false);
  Replay rep;
  const int64_t batches = 40;
  ReplayInProcess(&in, batches, 60 * kSecNs, /*keep_raw=*/true, &off, &rep);
  if (!rep.error.empty() || rep.batches != batches) {
    std::fprintf(stderr, "selftest: replay failed: %s\n", rep.error.c_str());
    return 1;
  }
  const int64_t rows = batches * w.batch_rows;
  auto transcript = [&](const std::vector<RawPush>& raw) {
    std::vector<PushRecord> out;
    for (const RawPush& p : raw) {
      out.push_back(MakePushRecord(w, p.cq, p.close, p.rows, 0));
    }
    return out;
  };
  int top = -1, cnt = -1;
  for (size_t c = 0; c < w.cqs.size(); ++c) {
    if (w.cqs[c].kind == CqKind::kTopUrls) top = static_cast<int>(c);
    if (w.cqs[c].kind == CqKind::kCountByUrl && cnt < 0) {
      cnt = static_cast<int>(c);
    }
  }
  // A push of CQ `cq` somewhere in the middle of the run.
  auto find = [&](int cq, int nth) {
    for (size_t i = 0; i < rep.raw.size(); ++i) {
      if (rep.raw[i].cq == cq && nth-- == 0) return i;
    }
    return rep.raw.size();
  };
  int bad = 0;
  auto expect = [&](const char* what, const std::vector<RawPush>& raw,
                    bool want_correct) {
    const CheckResult r =
        CheckRun(in, rows, transcript(raw), rep.queries, nullptr);
    const bool pass = r.correct == want_correct;
    std::printf("selftest %-32s %s%s%s\n", what,
                pass ? "ok" : "FAILED",
                r.errors.empty() ? "" : " — checker said: ",
                r.errors.empty() ? "" : r.errors[0].c_str());
    if (!pass) ++bad;
  };
  expect("true transcript passes", rep.raw, true);
  {
    auto raw = rep.raw;
    raw.erase(raw.begin() + static_cast<long>(find(cnt, 10)));
    expect("dropped window is caught", raw, false);
  }
  {
    auto raw = rep.raw;
    Row& row = raw[find(cnt, 11)].rows[0];
    row[1] = Value::Int64(row[1].AsInt64() + 1);
    expect("changed count is caught", raw, false);
  }
  {
    auto raw = rep.raw;
    raw.push_back(raw[find(cnt, 12)]);
    expect("duplicated push is caught", raw, false);
  }
  {
    // Replace a row of one top-k window with the same url's row from the
    // previous window (re-stamped), where that url's count differs.
    auto raw = rep.raw;
    bool done = false;
    for (int nth = 1; !done && find(top, nth) < raw.size(); ++nth) {
      const auto& prev = raw[find(top, nth - 1)].rows;
      RawPush& cur = raw[find(top, nth)];
      for (Row& row : cur.rows) {
        for (const Row& old : prev) {
          if (!done && old[0].AsString() == row[0].AsString() &&
              old[1].AsInt64() != row[1].AsInt64()) {
            row[1] = old[1];
            done = true;
          }
        }
      }
    }
    if (!done) {
      std::printf("selftest could not build a wrong-window top-k row\n");
      ++bad;
    }
    expect("top-k row from the wrong window", raw, false);
  }
  std::printf("selftest %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --server PATH --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out DIR\n"
                 "       %s --selftest\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (args.selftest) return perfbench::SelfTest();
  return perfbench::RunBenchmark(args);
}
