// Reduction of trace spans into the benchmark's per-layer metrics.
//
// The spans come from the program's own tracer: in-process from
// Tracer::global(), and for isex_serve from the Chrome trace it writes with
// --trace-out.  The benchmark adds spans only around the public calls it
// makes (bench.flow, bench.portfolio); it adds none to the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace isexbench {

struct SpanEvent {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint32_t tid = 0;
};

/// The completed spans among `events`.
std::vector<SpanEvent> spans_of(const std::vector<isex::trace::TraceEvent>& events);

/// The completed spans of a Chrome trace file written by
/// isex::trace::write_chrome_trace (one event object per line).
std::vector<SpanEvent> read_chrome_trace(const std::string& path);

/// Per span name, in seconds: total duration; self time, the duration minus
/// the spans nested inside it on the same thread (its children, and work the
/// thread ran for other spans while it waited in a nested parallel loop);
/// busy time, the per-thread union of its intervals, so a span nested in
/// another of the same name counts once; and the number of spans.
struct SpanTotals {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  std::map<std::string, double> busy_s;
  std::map<std::string, std::uint64_t> count;

  double total(const std::string& name) const;
  double self(const std::string& name) const;
  double busy(const std::string& name) const;
  std::uint64_t calls(const std::string& name) const;
  /// Sum of total(name) over names starting with `prefix`.
  double total_prefix(const std::string& prefix) const;
};
SpanTotals reduce(const std::vector<SpanEvent>& spans);

/// For every span named `root`: (Σ durations of its direct children whose
/// name starts with "stage:") / its duration.
std::vector<double> stage_sum_ratios(const std::vector<SpanEvent>& spans,
                                     const std::string& root);

}  // namespace isexbench
