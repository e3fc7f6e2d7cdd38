#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace softbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

int SpanRecorder::Open(const char* name, std::string arg) {
  Span span;
  span.name = name;
  span.arg = std::move(arg);
  span.parent = current_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanRecorder::Close(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  current_ = span.parent;
}

std::vector<uint64_t> SpanRecorder::SelfNs() const {
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].DurNs();
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.DurNs();
    }
  }
  return self;
}

namespace {

void WriteJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (u < 0x20) {
      std::fprintf(out, "\\u%04x", u);
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

// Microseconds with the nanoseconds kept as three decimals.
void WriteUs(std::FILE* out, uint64_t ns) {
  std::fprintf(out, "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
               static_cast<unsigned long long>(ns % 1000));
}

}  // namespace

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  std::fprintf(out, "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
                    "\"args\":{\"name\":");
  WriteJsonString(out, "softbench " + run_id_);
  std::fprintf(out, "}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"softbench\",\"name\":");
    WriteJsonString(out, span.name);
    std::fprintf(out, ",\"ts\":");
    WriteUs(out, span.start_ns - origin);
    std::fprintf(out, ",\"dur\":");
    WriteUs(out, span.DurNs());
    std::fprintf(out, ",\"args\":{\"span_id\":%zu", i + 1);
    if (span.parent >= 0) {
      std::fprintf(out, ",\"parent_id\":%d", span.parent + 1);
    }
    std::fprintf(out, ",\"run_id\":");
    WriteJsonString(out, run_id_);
    if (!span.arg.empty()) {
      std::fprintf(out, ",\"arg\":");
      WriteJsonString(out, span.arg);
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

std::map<std::string, NameTotals> TotalsByName(const SpanRecorder& recorder) {
  std::map<std::string, NameTotals> totals;
  const std::vector<uint64_t> self = recorder.SelfNs();
  for (size_t i = 0; i < recorder.spans().size(); ++i) {
    const Span& span = recorder.spans()[i];
    NameTotals& t = totals[span.name];
    ++t.calls;
    t.total_ns += span.DurNs();
    t.self_ns += self[i];
    t.durations_ns.push_back(span.DurNs());
  }
  return totals;
}

double Percentile(std::vector<uint64_t> values, double q, double* used_q) {
  if (values.empty()) {
    if (used_q != nullptr) {
      *used_q = 0;
    }
    return 0;
  }
  const double n = static_cast<double>(values.size());
  // At least 10 samples beyond the reported rank; never below the median.
  q = std::max(0.5, std::min(q, 1.0 - 10.0 / n));
  if (used_q != nullptr) {
    *used_q = q;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * n));
  return static_cast<double>(values[rank == 0 ? 0 : rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace softbench
