#include "poi360/obs/trace_export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace poi360::obs {

namespace {

/// Compact numeric form: integral values print without a mantissa so ids
/// and byte counts stay grep-able; everything else gets 6 significant
/// digits.
std::string num(double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

std::string escape(const char* s) {
  std::string out;
  for (; s && *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

std::string args_json(const TraceEvent& e) {
  std::string out = "{";
  for (int i = 0; i < e.n_args; ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += escape(e.args[i].key);
    out += "\":";
    out += num(e.args[i].value);
  }
  out += "}";
  return out;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << body;
  if (!out) throw std::runtime_error("write failed: " + path);
}

// Header matching to_trace_csv rows.
std::string trace_csv_header() {
  return "seq,time_us,phase,category,name,id,args";
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            const std::string& process_name,
                            std::uint64_t dropped) {
  // One synthetic thread per category keeps Perfetto's track layout stable:
  // frame-lifecycle spans, control decisions, and fault injections land on
  // separate rows instead of interleaving.
  std::vector<const char*> categories;
  auto tid_of = [&categories](const char* cat) {
    for (std::size_t i = 0; i < categories.size(); ++i) {
      if (std::string_view(categories[i]) == cat) return i + 1;
    }
    categories.push_back(cat);
    return categories.size();
  };

  std::string body;
  body.reserve(128 * events.size() + 256);
  char buf[160];
  for (const TraceEvent& e : events) {
    const std::size_t tid = tid_of(e.category ? e.category : "");
    if (!body.empty()) body += ",\n";
    if (e.phase == Phase::kInstant) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%" PRId64 ",",
                    tid, e.time);
      body += buf;
      if (e.id >= 0) {
        std::snprintf(buf, sizeof(buf), "\"id\":\"%" PRId64 "\",", e.id);
        body += buf;
      }
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"%s\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                    ",\"id\":\"%" PRId64 "\",",
                    e.phase == Phase::kSpanBegin ? "b" : "e", tid, e.time,
                    e.id);
      body += buf;
    }
    body += "\"cat\":\"" + escape(e.category) + "\",\"name\":\"" +
            escape(e.name) + "\",\"args\":" + args_json(e) + "}";
  }

  std::string meta = "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                     "\"process_name\",\"args\":{\"name\":\"" +
                     escape(process_name.c_str()) + "\"}}";
  for (std::size_t i = 0; i < categories.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"",
                  i + 1);
    meta += buf;
    meta += escape(categories[i]) + "\"}}";
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"dropped_events\":" +
                    std::to_string(dropped) + "},\"traceEvents\":[\n" + meta;
  if (!body.empty()) out += ",\n" + body;
  out += "\n]}\n";
  return out;
}

std::string to_trace_csv(const std::vector<TraceEvent>& events) {
  std::string out = trace_csv_header() + "\n";
  char buf[96];
  for (const TraceEvent& e : events) {
    const char* phase = e.phase == Phase::kSpanBegin ? "B"
                        : e.phase == Phase::kSpanEnd ? "E"
                                                     : "I";
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ",%" PRId64 ",%s,", e.seq,
                  e.time, phase);
    out += buf;
    out += e.category ? e.category : "";
    out += ",";
    out += e.name ? e.name : "";
    std::snprintf(buf, sizeof(buf), ",%" PRId64 ",", e.id);
    out += buf;
    for (int i = 0; i < e.n_args; ++i) {
      if (i > 0) out += ";";
      out += e.args[i].key;
      out += '=';
      out += num(e.args[i].value);
    }
    out += "\n";
  }
  return out;
}

void write_trace(const std::string& path, const TraceRecorder& recorder,
                 const std::string& process_name) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  write_file(path, csv ? to_trace_csv(recorder.snapshot())
                       : to_chrome_trace(recorder.snapshot(), process_name,
                                         recorder.dropped()));
}

}  // namespace poi360::obs
