#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>

#include "common/value.h"

namespace perfbench {

using streamrel::DataType;
using streamrel::Value;

namespace {

uint64_t Hash64(const std::string& s) {
  // FNV-1a 64 followed by a murmur finalizer; independent of the engine's
  // 32-bit wire checksum.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

std::string Canon(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return v.AsInt64() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(v.AsInt64());
    case DataType::kDouble: {
      const double d = v.AsDouble();
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::to_string(static_cast<int64_t>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      return buf;
    }
    case DataType::kTimestamp:
      return "T" + std::to_string(v.AsTimestampMicros());
    case DataType::kString:
      return v.AsString();
    default:
      return v.ToString();
  }
}

std::string T(int64_t micros) { return "T" + std::to_string(micros); }

std::string Join(std::initializer_list<std::string> cells) {
  std::string out;
  bool first = true;
  for (const std::string& c : cells) {
    if (!first) out += '|';
    out += c;
    first = false;
  }
  return out;
}

/// Per-second partial aggregates of the input, rebuilt from the pool.
struct Slice {
  std::vector<int64_t> count, sum, min_ts, max_ts;
  std::vector<int32_t> min_ip, max_ip;  // ip ranks in string order
  std::unordered_map<int32_t, int64_t> filtered;  // ip id -> count
};

/// One top-k candidate: its group key, count and canonical row.
struct Group {
  std::string key;
  int64_t count = 0;
  std::string canon;
};

class Expect {
 public:
  Expect(const Inputs& in, int64_t rows_acked)
      : in_(in), w_(*in.workload), closes_(w_.ClosesAfterRows(rows_acked)) {
    const bool clicks = w_.kind != WorkloadKind::kDashboard;
    const size_t groups = clicks ? kUrlCardinality : kNumPorts;
    std::vector<int32_t> order(in.ip_names.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return in.ip_names[a] < in.ip_names[b];
    });
    ip_rank_.resize(order.size());
    for (size_t r = 0; r < order.size(); ++r) {
      ip_rank_[order[r]] = static_cast<int32_t>(r);
    }
    ip_by_rank_ = order;
    slices_.resize(static_cast<size_t>(closes_));
    for (int64_t s = 0; s < closes_; ++s) {
      Slice& sl = slices_[s];
      sl.count.assign(groups, 0);
      sl.sum.assign(groups, 0);
      sl.min_ts.assign(groups, INT64_MAX);
      sl.max_ts.assign(groups, INT64_MIN);
      sl.min_ip.assign(groups, INT32_MAX);
      sl.max_ip.assign(groups, -1);
      for (int64_t k = s * w_.rows_per_sec; k < (s + 1) * w_.rows_per_sec;
           ++k) {
        const size_t b = in.Slot(k), p = in.Pos(k);
        const int32_t g = in.key[b][p];
        const int32_t ip = in.aux[b][p];
        const int64_t ts = w_.RowTs(k);
        sl.count[g] += 1;
        sl.sum[g] += in.val[b][p];
        sl.min_ts[g] = std::min(sl.min_ts[g], ts);
        sl.max_ts[g] = std::max(sl.max_ts[g], ts);
        sl.min_ip[g] = std::min(sl.min_ip[g], ip_rank_[ip]);
        sl.max_ip[g] = std::max(sl.max_ip[g], ip_rank_[ip]);
        if (clicks && g == kFilterUrl) sl.filtered[ip] += 1;
      }
    }
  }

  int64_t closes() const { return closes_; }

  /// The merged slices of the window closing at close n.
  Slice Window(int64_t n, int visible_s) const {
    Slice out = slices_[n - 1];
    for (int64_t s = std::max<int64_t>(0, n - visible_s); s < n - 1; ++s) {
      const Slice& sl = slices_[s];
      for (size_t g = 0; g < out.count.size(); ++g) {
        out.count[g] += sl.count[g];
        out.sum[g] += sl.sum[g];
        out.min_ts[g] = std::min(out.min_ts[g], sl.min_ts[g]);
        out.max_ts[g] = std::max(out.max_ts[g], sl.max_ts[g]);
        out.min_ip[g] = std::min(out.min_ip[g], sl.min_ip[g]);
        out.max_ip[g] = std::max(out.max_ip[g], sl.max_ip[g]);
      }
      for (const auto& [ip, c] : sl.filtered) out.filtered[ip] += c;
    }
    return out;
  }

  std::string GroupName(size_t g) const {
    return w_.kind == WorkloadKind::kDashboard ? std::to_string(kPorts[g])
                                               : UrlName(static_cast<int>(g));
  }

  /// Digest of a CQ's window (not for top-k kinds).
  Digest Rows(const CqSpec& cq, int64_t n) const {
    const Slice win = Window(n, cq.visible_s);
    const std::string close = T(w_.CloseMicros(n));
    Digest d;
    if (cq.kind == CqKind::kIpCountFiltered) {
      for (const auto& [ip, c] : win.filtered) {
        d.Add(Join({in_.ip_names[ip], std::to_string(c)}));
      }
      return d;
    }
    for (size_t g = 0; g < win.count.size(); ++g) {
      if (win.count[g] == 0) continue;
      const std::string key = GroupName(g);
      const std::string c = std::to_string(win.count[g]);
      switch (cq.kind) {
        case CqKind::kCountByUrl:
          d.Add(Join({key, c}));
          break;
        case CqKind::kCountByUrlStime:
          d.Add(Join({key, c, close}));
          break;
        case CqKind::kMinMaxTsByUrl:
          d.Add(Join({key, T(win.min_ts[g]), T(win.max_ts[g])}));
          break;
        case CqKind::kCountMinMaxIp:
          d.Add(Join({key, c, in_.ip_names[ip_by_rank_[win.min_ip[g]]],
                      in_.ip_names[ip_by_rank_[win.max_ip[g]]]}));
          break;
        case CqKind::kPortCountSum:
          d.Add(Join({key, c, std::to_string(win.sum[g]), close}));
          break;
        default:
          break;
      }
    }
    return d;
  }

  /// Top-k candidates: every non-empty group of the window.
  /// `shape` picks the row layout: (key, c), (key, c, stime) or
  /// (port, c, b, stime).
  enum class Shape { kKeyCount, kKeyCountStime, kPort };
  std::vector<Group> Groups(int64_t n, int visible_s, Shape shape) const {
    const Slice win = Window(n, visible_s);
    const std::string stime = T(w_.CloseMicros(n));
    std::vector<Group> out;
    for (size_t g = 0; g < win.count.size(); ++g) {
      if (win.count[g] == 0) continue;
      Group grp{GroupName(g), win.count[g], ""};
      const std::string c = std::to_string(win.count[g]);
      switch (shape) {
        case Shape::kKeyCount:
          grp.canon = Join({grp.key, c});
          break;
        case Shape::kKeyCountStime:
          grp.canon = Join({grp.key, c, stime});
          break;
        case Shape::kPort:
          grp.canon = Join({grp.key, c, std::to_string(win.sum[g]), stime});
          break;
      }
      out.push_back(std::move(grp));
    }
    return out;
  }

  /// The store-first report for close n: (dst_port, count, sum).
  Digest Report(int64_t n, int visible_s) const {
    const Slice win = Window(n, visible_s);
    Digest d;
    for (size_t g = 0; g < win.count.size(); ++g) {
      if (win.count[g] == 0) continue;
      d.Add(Join({GroupName(g), std::to_string(win.count[g]),
                  std::to_string(win.sum[g])}));
    }
    return d;
  }

  /// The board joined with port_service at close n.
  Digest BoardJoin(int64_t n, int visible_s) const {
    const Slice win = Window(n, visible_s);
    Digest d;
    for (size_t g = 0; g < kServicePorts; ++g) {
      if (win.count[g] == 0) continue;
      d.Add(Join({GroupName(g), PortService(static_cast<int>(g)),
                  std::to_string(win.count[g]), std::to_string(win.sum[g]),
                  T(w_.CloseMicros(n))}));
    }
    return d;
  }

 private:
  const Inputs& in_;
  const Workload& w_;
  int64_t closes_;
  std::vector<int32_t> ip_rank_, ip_by_rank_;
  std::vector<Slice> slices_;
};

std::vector<std::string> SplitRows(const std::string& text) {
  std::vector<std::string> rows;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    rows.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return rows;
}

/// Any valid tie-break passes: the answer must hold min(k, groups)
/// distinct groups with their exact rows, in non-increasing count order,
/// and no group left out may count more than the smallest one returned.
bool CheckTopK(const std::vector<Group>& expected, const std::string& answer,
               size_t k, std::string* why) {
  const std::vector<std::string> got = SplitRows(answer);
  const size_t want = std::min(k, expected.size());
  if (got.size() != want) {
    *why = "top-k has " + std::to_string(got.size()) + " rows, want " +
           std::to_string(want);
    return false;
  }
  std::unordered_map<std::string, const Group*> by_key;
  for (const Group& g : expected) by_key[g.key] = &g;
  std::set<std::string> seen;
  int64_t prev = INT64_MAX;
  for (const std::string& row : got) {
    const std::string key = row.substr(0, row.find('|'));
    auto it = by_key.find(key);
    if (it == by_key.end() || it->second->canon != row) {
      *why = "top-k row '" + row + "' is not in the window";
      return false;
    }
    if (!seen.insert(key).second) {
      *why = "top-k repeats group " + key;
      return false;
    }
    if (it->second->count > prev) {
      *why = "top-k out of order at " + key;
      return false;
    }
    prev = it->second->count;
  }
  for (const Group& g : expected) {
    if (!seen.count(g.key) && g.count > prev) {
      *why = "top-k misses group " + g.key + " with count " +
             std::to_string(g.count);
      return false;
    }
  }
  return true;
}

Digest DigestOf(const std::string& answer) {
  Digest d;
  for (const std::string& row : SplitRows(answer)) d.Add(row);
  return d;
}

int64_t CloseIndex(int64_t close) {
  const int64_t d = close - kBaseMicros;
  return d > 0 && d % 1000000 == 0 ? d / 1000000 : -1;
}

/// The single close all rows of a board answer carry (their last cell),
/// 0 for an empty board, or -1.
int64_t BoardClose(const std::string& answer) {
  int64_t close = -1;
  for (const std::string& row : SplitRows(answer)) {
    const size_t bar = row.rfind('|');
    if (bar == std::string::npos || row.compare(bar + 1, 1, "T") != 0) {
      return -1;
    }
    char* end = nullptr;
    const int64_t c = std::strtoll(row.c_str() + bar + 2, &end, 10);
    if (*end != '\0') return -1;
    if (close != -1 && c != close) return -1;
    close = c;
  }
  return close == -1 ? 0 : CloseIndex(close);
}

}  // namespace

void Digest::Add(const std::string& canonical_row) {
  sum += Hash64(canonical_row);
  rows += 1;
}

void CheckResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

std::string CanonRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    if (!out.empty()) out += '\n';
    out += CanonRow(row, row.size());
  }
  return out;
}

std::string CanonRow(const Row& row, size_t columns) {
  std::string out;
  for (size_t i = 0; i < columns && i < row.size(); ++i) {
    if (i) out += '|';
    out += Canon(row[i]);
  }
  return out;
}

PushRecord MakePushRecord(const Workload& w, int cq, int64_t close,
                          const std::vector<Row>& rows, int64_t arrival_ns) {
  PushRecord p;
  p.cq = cq;
  p.close = close;
  p.arrival_ns = arrival_ns;
  const bool report = cq == w.report_cq;
  for (const Row& row : rows) {
    p.digest.Add(CanonRow(row, row.size()));
    if (report) p.report_digest.Add(CanonRow(row, row.size() - 1));
  }
  if (w.cqs[cq].kind == CqKind::kTopUrls) p.topk = CanonRows(rows);
  return p;
}

bool PlanQuery(const Inputs& in, int64_t seq, int64_t acked, QueryRecord* q) {
  const Workload& w = *in.workload;
  const int64_t rows = acked * w.batch_rows;
  const int64_t closes = w.ClosesAfterRows(rows);
  if (closes < 1) return false;
  q->kind = w.queries[static_cast<size_t>(seq) % w.queries.size()];
  q->acked_lo = acked;
  q->param = closes;
  if (q->kind == QueryKind::kSrcIpTotals) {
    // An ip that occurs in the acknowledged rows, picked by the sequence.
    const int64_t k = (seq * 7919) % rows;
    q->param = in.aux[in.Slot(k)][in.Pos(k)];
    q->param2 = rows - 1;
  }
  return true;
}

std::string QuerySql(const Inputs& in, const QueryRecord& q) {
  const Workload& w = *in.workload;
  switch (q.kind) {
    case QueryKind::kTopBoard:
      return "SELECT url, c FROM top_board WHERE stime = " +
             TsLiteral(w.CloseMicros(q.param));
    case QueryKind::kTopPorts:
      return "SELECT dst_port, c, b, stime FROM port_board ORDER BY c DESC "
             "LIMIT " +
             std::to_string(kTopPortsLimit);
    case QueryKind::kBoardJoin:
      return "SELECT p.dst_port, s.service, p.c, p.b, p.stime FROM "
             "port_board p JOIN port_service s ON p.dst_port = s.port";
    case QueryKind::kSrcIpTotals:
      return "SELECT count(*), sum(bytes) FROM conn_log WHERE src_ip = '" +
             in.ip_names[q.param] + "' AND ts <= " +
             TsLiteral(w.RowTs(q.param2));
    case QueryKind::kWindowReport: {
      const int visible = w.cqs[w.report_cq].visible_s;
      return "SELECT dst_port, count(*) AS c, sum(bytes) AS b FROM conn_log "
             "WHERE ts >= " +
             TsLiteral(w.CloseMicros(q.param - visible)) +
             " AND ts < " + TsLiteral(w.CloseMicros(q.param)) +
             " GROUP BY dst_port";
    }
  }
  return "";
}

CheckResult CheckRun(const Inputs& in, int64_t rows_acked,
                     const std::vector<PushRecord>& pushes,
                     const std::vector<QueryRecord>& queries,
                     const ServerTotals* totals) {
  const Workload& w = *in.workload;
  CheckResult res;
  const Expect expect(in, rows_acked);
  const int64_t closes = expect.closes();
  std::string why;

  // Pushes: exactly one per (CQ, close), each equal to the oracle's window.
  std::vector<std::vector<const PushRecord*>> by_close(
      w.cqs.size(), std::vector<const PushRecord*>(closes + 1, nullptr));
  std::vector<int64_t> received(w.cqs.size(), 0);
  for (const PushRecord& p : pushes) {
    const CqSpec& cq = w.cqs[p.cq];
    const int64_t n = CloseIndex(p.close);
    received[p.cq] += 1;
    if (n < 1 || n > closes) {
      res.Fail(cq.name + ": push for unexpected close " +
               std::to_string(p.close));
      continue;
    }
    if (by_close[p.cq][n] != nullptr) {
      res.Fail(cq.name + ": duplicate push for close " + std::to_string(n));
      continue;
    }
    by_close[p.cq][n] = &p;
    if (cq.kind == CqKind::kTopUrls) {
      if (!CheckTopK(expect.Groups(n, cq.visible_s,
                                   Expect::Shape::kKeyCountStime),
                     p.topk,
                     static_cast<size_t>(cq.top_k), &why)) {
        res.Fail(cq.name + " close " + std::to_string(n) + ": " + why);
      }
      continue;
    }
    const Digest want = expect.Rows(cq, n);
    if (!(want == p.digest)) {
      res.Fail(cq.name + " close " + std::to_string(n) + ": " +
               std::to_string(p.digest.rows) + " rows differ from the " +
               std::to_string(want.rows) + " expected");
    }
  }
  for (size_t c = 0; c < w.cqs.size(); ++c) {
    for (int64_t n = 1; n <= closes; ++n) {
      if (by_close[c][n] == nullptr) {
        res.missing_pushes += 1;
        res.Fail(w.cqs[c].name + ": no push for close " + std::to_string(n));
      }
    }
  }

  // Reader answers, each against the state after some batch it overlapped.
  std::unordered_map<int32_t, std::vector<std::pair<int64_t, int64_t>>>
      by_ip;  // ip -> (row index, running byte sum)
  if (w.kind == WorkloadKind::kDashboard) {
    for (int64_t k = 0; k < rows_acked; ++k) {
      const size_t b = in.Slot(k), p = in.Pos(k);
      auto& list = by_ip[in.aux[b][p]];
      const int64_t prev = list.empty() ? 0 : list.back().second;
      list.emplace_back(k, prev + in.val[b][p]);
    }
  }
  std::unordered_map<int64_t, std::vector<Group>> board_groups;  // by close
  for (const QueryRecord& q : queries) {
    if (!q.ok) continue;
    const std::string tag = "query " + QuerySql(in, q) + ": ";
    const int64_t lo = w.ClosesAfterRows(q.acked_lo * w.batch_rows);
    const int64_t hi = std::min(
        closes, w.ClosesAfterRows((q.acked_hi + 1) * w.batch_rows));
    switch (q.kind) {
      case QueryKind::kTopBoard: {
        auto it = board_groups.find(q.param);
        if (it == board_groups.end()) {
          it = board_groups
                   .emplace(q.param,
                            expect.Groups(q.param, w.board_visible_s,
                                          Expect::Shape::kKeyCount))
                   .first;
        }
        if (!CheckTopK(it->second, q.answer, kBoardTopK, &why)) {
          res.Fail(tag + why);
        }
        break;
      }
      case QueryKind::kTopPorts:
      case QueryKind::kBoardJoin: {
        const int64_t n = BoardClose(q.answer);
        if (n < lo || n > hi) {
          res.Fail(tag + "board holds close " + std::to_string(n) +
                   ", acknowledged range is [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
          break;
        }
        const int visible = w.cqs[w.report_cq].visible_s;
        if (q.kind == QueryKind::kTopPorts) {
          if (!CheckTopK(expect.Groups(n, visible, Expect::Shape::kPort),
                         q.answer,
                         kTopPortsLimit, &why)) {
            res.Fail(tag + why);
          }
        } else {
          if (!(DigestOf(q.answer) == expect.BoardJoin(n, visible))) {
            res.Fail(tag + "join differs from close " + std::to_string(n));
          }
        }
        break;
      }
      case QueryKind::kSrcIpTotals: {
        int64_t count = 0, sum = 0;
        auto it = by_ip.find(static_cast<int32_t>(q.param));
        if (it != by_ip.end()) {
          const auto& list = it->second;
          auto end = std::upper_bound(
              list.begin(), list.end(), std::make_pair(q.param2, INT64_MAX));
          count = end - list.begin();
          sum = count ? (end - 1)->second : 0;
        }
        const std::string want =
            std::to_string(count) + "|" + (count ? std::to_string(sum) : "NULL");
        const std::string& got = q.answer;
        if (got != want) res.Fail(tag + "got " + got + ", want " + want);
        break;
      }
      case QueryKind::kWindowReport: {
        const Digest got = DigestOf(q.answer);
        const int visible = w.cqs[w.report_cq].visible_s;
        if (!(got == expect.Report(q.param, visible))) {
          res.Fail(tag + "report differs from the oracle");
        }
        const PushRecord* push = q.param <= closes
                                     ? by_close[w.report_cq][q.param]
                                     : nullptr;
        if (push != nullptr && !(push->report_digest == got)) {
          res.Fail(tag + "store-first report differs from the pushed window");
        }
        break;
      }
    }
  }

  if (totals != nullptr) {
    if (totals->rows_ingested != rows_acked) {
      res.Fail("rows_ingested " + std::to_string(totals->rows_ingested) +
               " != rows acknowledged " + std::to_string(rows_acked));
    }
    if (w.kind == WorkloadKind::kDashboard &&
        totals->archive_rows != rows_acked) {
      res.Fail("count(*) of conn_log " +
               std::to_string(totals->archive_rows) +
               " != rows acknowledged " + std::to_string(rows_acked));
    }
    if (totals->pushes_shed != 0 || totals->pushes_disconnected != 0) {
      res.Fail("pushes shed " + std::to_string(totals->pushes_shed) +
               ", disconnected " +
               std::to_string(totals->pushes_disconnected));
    }
    for (size_t c = 0; c < w.cqs.size(); ++c) {
      const int64_t closed = c < totals->windows_closed.size()
                                 ? totals->windows_closed[c]
                                 : -1;
      if (closed != closes || received[c] != closes) {
        res.Fail(w.cqs[c].name + ": closes implied " +
                 std::to_string(closes) + ", pushes " +
                 std::to_string(received[c]) + ", windows_closed " +
                 std::to_string(closed));
      }
    }
  }
  return res;
}

}  // namespace perfbench
