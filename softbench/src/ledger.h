// The benchmark's layer ledger: spans the benchmark records around the
// program's public calls, per-layer self time, sample statistics, and the
// Chrome trace export.
//
// Spans are opened and closed by the benchmark's own code on one thread, in
// strictly nested order, and kept in memory until the run ends. A span's self
// time is its duration minus the part of its interval covered by its direct
// children; children of one span never overlap (one thread, nested order),
// so that part is the sum of the children's durations.
#ifndef SOFTBENCH_SRC_LEDGER_H_
#define SOFTBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace softbench {

uint64_t NowNs();

struct Span {
  const char* name = "";  // the public call, e.g. "Database::Execute"
  std::string arg;        // pattern, oracle, or unit the call served
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;        // index into the recorder's spans, -1 = root
  uint64_t DurNs() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {}

  int Open(const char* name, std::string arg);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span (same indexing as spans()).
  std::vector<uint64_t> SelfNs() const;

  // Writes the spans as Chrome trace-event JSON (Perfetto-loadable, the
  // format tools/check_trace_json.py validates). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// Records one span for its lifetime; a null recorder records nothing, so the
// untraced paths share the traced code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::string arg = {})
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name, std::move(arg)) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Per-name totals over a recorder: call count, summed duration and summed
// self time, plus every duration (for percentiles).
struct NameTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::vector<uint64_t> durations_ns;
};
std::map<std::string, NameTotals> TotalsByName(const SpanRecorder& recorder);

// A percentile of a sample set, following the rule that a percentile is only
// reported when at least 10 samples lie beyond it: `Percentile` returns the
// requested quantile when that holds, else the highest quantile that has 10
// samples beyond it (the median at worst; 0 for an empty set). `used_q`
// receives the quantile actually reported.
double Percentile(std::vector<uint64_t> values, double q, double* used_q = nullptr);

double Median(std::vector<double> values);

}  // namespace softbench

#endif  // SOFTBENCH_SRC_LEDGER_H_
