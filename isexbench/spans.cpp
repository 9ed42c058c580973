#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace isexbench {

namespace {

// Value of a numeric field `"key":<digits>` at or after `from`; 0 if absent.
std::uint64_t number_field(const std::string& line, const std::string& key,
                           std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

std::vector<SpanEvent> spans_of(const std::vector<isex::trace::TraceEvent>& events) {
  std::vector<SpanEvent> out;
  for (const isex::trace::TraceEvent& e : events)
    if (e.kind == isex::trace::EventKind::kSpan)
      out.push_back(SpanEvent{e.name, e.ts_us, e.dur_us, e.span_id, e.parent_id, e.tid});
  return out;
}

std::vector<SpanEvent> read_chrome_trace(const std::string& path) {
  std::vector<SpanEvent> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string open = "{\"name\":\"";
    if (line.rfind(open, 0) != 0) continue;
    // The name, with JSON escapes undone.
    std::string name;
    std::size_t i = open.size();
    for (; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      name += line[i];
    }
    if (line.find("\"ph\":\"X\"", i) == std::string::npos) continue;
    out.push_back(SpanEvent{name, number_field(line, "ts", i),
                            number_field(line, "dur", i),
                            number_field(line, "span_id", i),
                            number_field(line, "parent_span_id", i),
                            static_cast<std::uint32_t>(number_field(line, "tid", i))});
  }
  return out;
}

double SpanTotals::total(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

double SpanTotals::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

double SpanTotals::busy(const std::string& name) const {
  const auto it = busy_s.find(name);
  return it == busy_s.end() ? 0.0 : it->second;
}

std::uint64_t SpanTotals::calls(const std::string& name) const {
  const auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

double SpanTotals::total_prefix(const std::string& prefix) const {
  double sum = 0.0;
  for (const auto& [name, seconds] : total_s)
    if (name.rfind(prefix, 0) == 0) sum += seconds;
  return sum;
}

SpanTotals reduce(const std::vector<SpanEvent>& spans) {
  // Spans of one thread nest (they are scoped), so a sweep in start order
  // with a stack of open spans finds each span's directly enclosing one.
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < spans.size(); ++i) by_thread[spans[i].tid].push_back(i);
  const auto end_of = [&](std::size_t i) { return spans[i].ts_us + spans[i].dur_us; };

  SpanTotals totals;
  std::vector<std::uint64_t> nested_us(spans.size(), 0);
  for (auto& [tid, ids] : by_thread) {
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].ts_us != spans[b].ts_us) return spans[a].ts_us < spans[b].ts_us;
      return spans[a].dur_us > spans[b].dur_us;
    });
    std::vector<std::size_t> open;
    std::map<std::string, std::uint64_t> busy_until;  // per name, this thread
    for (const std::size_t i : ids) {
      while (!open.empty() && end_of(open.back()) <= spans[i].ts_us) open.pop_back();
      if (!open.empty())
        nested_us[open.back()] += std::min(end_of(i), end_of(open.back())) - spans[i].ts_us;
      open.push_back(i);
      std::uint64_t& until = busy_until[spans[i].name];
      const std::uint64_t from = std::max(until, spans[i].ts_us);
      if (end_of(i) > from) totals.busy_s[spans[i].name] += static_cast<double>(end_of(i) - from) * 1e-6;
      until = std::max(until, end_of(i));
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& s = spans[i];
    totals.total_s[s.name] += static_cast<double>(s.dur_us) * 1e-6;
    totals.self_s[s.name] +=
        static_cast<double>(s.dur_us - std::min(s.dur_us, nested_us[i])) * 1e-6;
    ++totals.count[s.name];
  }
  return totals;
}

std::vector<double> stage_sum_ratios(const std::vector<SpanEvent>& spans,
                                     const std::string& root) {
  std::unordered_map<std::uint64_t, std::uint64_t> stage_us;
  for (const SpanEvent& s : spans)
    if (s.parent_id != 0 && s.name.rfind("stage:", 0) == 0)
      stage_us[s.parent_id] += s.dur_us;
  std::vector<double> out;
  for (const SpanEvent& s : spans) {
    if (s.name != root || s.dur_us == 0) continue;
    const auto it = stage_us.find(s.span_id);
    out.push_back(it == stage_us.end()
                      ? 0.0
                      : static_cast<double>(it->second) / static_cast<double>(s.dur_us));
  }
  return out;
}

}  // namespace isexbench
