// In-memory span recorder for the traced run. Each thread owns a Tracer;
// spans nest by a per-thread stack, so a span's parent is the span open
// around it. Spans are written as one JSON file when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum SpanName : int {
  kSpanIngestRpc,   // client IngestBatch round trip (loopback)
  kSpanQueryRpc,    // client Query round trip (loopback)
  kSpanPushWait,    // client NextPush until a window arrives (loopback)
  kSpanFrameEncode,  // EncodeIngestBody + EncodeFrame
  kSpanChecksum,     // Fnv1a over the frame payload
  kSpanFrameDecode,  // TryDecodeFrame + DecodeIngestBodyColumnar
  kSpanEngineIngest,  // Database::Ingest(ColumnBatch&&)
  kSpanPushEncode,    // EncodeStreamRowsBody + EncodeFrame per window
  kSpanParse,         // sql::ParseSingleStatement
  kSpanExecute,       // Database::Execute
  kSpanCount
};

inline const char* SpanNameText(int name) {
  static const char* kNames[kSpanCount] = {
      "client.ingest_batch", "client.query",     "client.next_push",
      "net.frame_encode",    "net.checksum",     "net.frame_decode",
      "engine.ingest",       "net.push_encode",  "sql.parse",
      "exec.query"};
  return kNames[name];
}

struct Span {
  int name = 0;
  int parent = -1;  // index of the enclosing span in the same Tracer
  int64_t id = 0;   // batch index, window close or query sequence
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // time covered by direct children
  int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(int name, int64_t id) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) return;
    Span& s = spans_[index];
    s.end_ns = NowNs();
    stack_.pop_back();
    if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  }

  /// Sets the id of a span opened before the id was known.
  void SetId(int index, int64_t id) {
    if (index >= 0) spans_[index].id = id;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends this tracer's spans as a JSON array of
  /// [name, parent, id, start_ns, end_ns].
  void AppendJson(std::string* out) const {
    out->push_back('[');
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%s[%d,%d,%lld,%lld,%lld]",
                    i ? "," : "", s.name, s.parent,
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns));
      out->append(buf);
    }
    out->push_back(']');
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, int name, int64_t id)
      : t_(t), index_(t->Begin(name, id)) {}
  ~ScopedSpan() { t_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
