#include "trace/metrics.h"

#include <cstdio>
#include <ostream>

#include "trace/registry.h"
#include "trace/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace pdat::trace {

namespace {

/// Doubles formatted with a fixed precision so the timing section is at
/// least syntactically stable (values still vary run to run, of course).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void write_histogram(std::ostream& os, const char* indent, const HistogramSnapshot& s) {
  os << "{\"count\":" << s.count << ",\"sum\":" << s.sum << ",\"max\":" << s.max << ",\n"
     << indent << " \"buckets\":[";
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (i > 0) os << ",";
    os << s.buckets[i];
  }
  os << "]}";
}

}  // namespace

double process_cpu_seconds() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
  return 0;
#endif
}

std::uint64_t process_peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#else
  return 0;
#endif
}

void write_metrics_json(std::ostream& os, const MetricsInfo& info) {
  os << "{\n";
  os << "  \"schema\": " << quoted(kMetricsSchemaName) << ",\n";
  os << "  \"version\": " << kMetricsSchemaVersion << ",\n";
  os << "  \"label\": " << quoted(info.label) << ",\n";

  // --- deterministic subtree -------------------------------------------------
  os << "  \"deterministic\": {\n";
  os << "    \"pipeline\": {\n";
  os << "      \"candidates\": " << info.candidates << ",\n";
  os << "      \"after_sim_filter\": " << info.after_sim_filter << ",\n";
  os << "      \"proven\": " << info.proven << ",\n";
  os << "      \"gates_before\": " << info.gates_before << ",\n";
  os << "      \"gates_after\": " << info.gates_after << ",\n";
  os << "      \"degraded\": " << (info.degraded ? "true" : "false") << ",\n";
  os << "      \"resumed_from_round\": " << info.resumed_from_round << "\n";
  os << "    },\n";
  os << "    \"counters\": {\n";
  bool first = true;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (!counter_deterministic(c)) continue;
    if (!first) os << ",\n";
    first = false;
    os << "      " << quoted(counter_name(c)) << ": " << counter_value(c);
  }
  os << "\n    },\n";
  os << "    \"histograms\": {\n";
  first = true;
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const auto h = static_cast<Histogram>(i);
    if (!histogram_deterministic(h)) continue;
    if (!first) os << ",\n";
    first = false;
    os << "      " << quoted(histogram_name(h)) << ": ";
    write_histogram(os, "      ", histogram_snapshot(h));
  }
  os << "\n    },\n";
  const std::vector<RoundRecord> rounds = round_records();
  os << "    \"induction_rounds\": [";
  first = true;
  for (const RoundRecord& r : rounds) {
    if (!first) os << ",";
    first = false;
    os << "\n      {\"round\":" << r.round << ",\"alive_before\":" << r.alive_before
       << ",\"cex_kills\":" << r.cex_kills << ",\"budget_kills\":" << r.budget_kills
       << ",\"sat_calls\":" << r.sat_calls << "}";
  }
  os << "\n    ]\n";
  os << "  },\n";

  // --- timing subtree (no stability guarantee) -------------------------------
  os << "  \"timing\": {\n";
  os << "    \"total_wall_seconds\": " << fmt(info.total_wall_seconds) << ",\n";
  os << "    \"cpu_seconds\": " << fmt(process_cpu_seconds()) << ",\n";
  os << "    \"peak_rss_bytes\": " << process_peak_rss_bytes() << ",\n";
  os << "    \"stages\": [";
  first = true;
  for (const StageTiming& st : info.stages) {
    if (!first) os << ",";
    first = false;
    os << "\n      {\"name\":" << quoted(st.name) << ",\"wall_seconds\":" << fmt(st.wall_seconds)
       << "}";
  }
  os << "\n    ],\n";
  os << "    \"induction_rounds\": [";
  first = true;
  for (const RoundRecord& r : rounds) {
    if (!first) os << ",";
    first = false;
    os << "\n      {\"round\":" << r.round << ",\"wall_seconds\":" << fmt(r.wall_seconds) << "}";
  }
  os << "\n    ],\n";
  os << "    \"counters\": {\n";
  first = true;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (counter_deterministic(c)) continue;
    if (!first) os << ",\n";
    first = false;
    os << "      " << quoted(counter_name(c)) << ": " << counter_value(c);
  }
  os << "\n    },\n";
  os << "    \"histograms\": {\n";
  first = true;
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const auto h = static_cast<Histogram>(i);
    if (histogram_deterministic(h)) continue;
    if (!first) os << ",\n";
    first = false;
    os << "      " << quoted(histogram_name(h)) << ": ";
    write_histogram(os, "      ", histogram_snapshot(h));
  }
  os << "\n    }\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace pdat::trace
