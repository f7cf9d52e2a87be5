#include "campaign/sinks.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

#include "crypto/backend/backend.hpp"

namespace pqtls::campaign {

namespace {

// snprintf with a C locale-independent fixed format: identical doubles
// always serialize to identical bytes, which the determinism guarantee
// (equal rows at any worker count) depends on. Non-finite values (the
// engines report NaN percentiles for a window with zero completions)
// canonicalize to "nan" — platform printf would emit "nan"/"-nan"/"nan(…)".
std::string fmt_fixed(double value) {
  if (!std::isfinite(value)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

std::string fmt_ms(double seconds) { return fmt_fixed(seconds * 1e3); }

// JSON has no NaN literal; empty windows serialize as null.
std::string fmt_ms_json(double seconds) {
  return std::isfinite(seconds) ? fmt_ms(seconds) : "null";
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

std::string csv_quote(std::string_view text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"') out += "\"\"";
    else out.push_back(ch);
  }
  out += "\"";
  return out;
}

std::string csv_escape(std::string_view text) {
  if (text.find_first_of(",\"\n") == std::string_view::npos)
    return std::string(text);
  return csv_quote(text);
}

// Loadgen rates and ratios, fixed-precision for byte-stable rows.
std::string fmt_rate(double per_second) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", per_second);
  return buf;
}

const char* arrival_name(loadgen::Arrival arrival) {
  return arrival == loadgen::Arrival::kPoisson ? "poisson" : "closed";
}

const char* policy_name(loadgen::Policy policy) {
  return policy == loadgen::Policy::kFifo ? "fifo" : "sjf";
}

bool is_loadgen_campaign(const CampaignSpec& spec) {
  return !spec.cells.empty() && spec.cells.front().loadgen.has_value();
}

bool is_fleet_campaign(const CampaignSpec& spec) {
  return is_loadgen_campaign(spec) && spec.cells.front().loadgen->is_fleet();
}

// Campaigns sweeping the server-side batching factor get a batch field so
// otherwise-identical cells stay distinguishable; campaigns where every
// cell runs unbatched keep their pre-batching row bytes.
bool is_batch_campaign(const CampaignSpec& spec) {
  if (!is_loadgen_campaign(spec)) return false;
  for (const auto& cell : spec.cells)
    if (cell.loadgen && cell.loadgen->batch != 1) return true;
  return false;
}

// SLO verdict for fleet rows: tail latency within the configured budget and
// at most 1% of arrivals lost to drops/abandonment (the sweep's knee rule).
bool within_slo(const loadgen::LoadConfig& lc, const CellOutcome& o) {
  const auto& m = o.load;
  if (!o.ok() || !std::isfinite(m.p99)) return false;
  double lost = static_cast<double>(m.dropped + m.timed_out);
  return m.p99 <= lc.slo_s &&
         (m.arrivals <= 0 || lost <= 0.01 * static_cast<double>(m.arrivals));
}

// A sink receiving ok=true metrics with non-finite percentiles means an
// engine skipped the zero-completion guard — fail loudly in debug builds.
void check_percentiles(const CellOutcome& o) {
  assert((!o.cell.loadgen || !o.ok() ||
          (std::isfinite(o.load.p50) && std::isfinite(o.load.p90) &&
           std::isfinite(o.load.p99) && std::isfinite(o.load.p999))) &&
         "ok metrics must carry finite percentiles");
  (void)o;
}

}  // namespace

void JsonlSink::begin(const CampaignSpec& spec, const RunnerOptions& opts) {
  batch_ = is_batch_campaign(spec);
  if (emit_meta_) {
    out_ << "{\"meta\":true,\"campaign\":\"" << json_escape(spec.name)
         << "\",\"backend\":\"" << crypto::backend::active_name()
         << "\",\"workers\":" << opts.workers << "}\n";
  }
}

void JsonlSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen) {
    check_percentiles(o);
    const auto& lc = *o.cell.loadgen;
    const auto& m = o.load;
    out_ << "{\"campaign\":\"" << json_escape(o.campaign) << "\""
         << ",\"id\":\"" << json_escape(o.cell.id) << "\""
         << ",\"ka\":\"" << json_escape(lc.ka) << "\""
         << ",\"sa\":\"" << json_escape(lc.sa) << "\""
         << ",\"arrival\":\"" << arrival_name(lc.arrival) << "\""
         << ",\"policy\":\"" << policy_name(lc.policy) << "\""
         << ",\"seed\":" << lc.seed
         << ",\"ok\":" << (o.ok() ? "true" : "false")
         << ",\"error\":\"" << json_escape(o.error) << "\""
         << ",\"cores\":" << lc.cores
         << ",\"backlog\":" << lc.backlog
         << ",\"offered_hs_s\":" << fmt_rate(m.offered_rate)
         << ",\"achieved_hs_s\":" << fmt_rate(m.achieved_rate)
         << ",\"capacity_hs_s\":" << fmt_rate(m.analytic_capacity)
         << ",\"p50_ms\":" << fmt_ms_json(m.p50)
         << ",\"p90_ms\":" << fmt_ms_json(m.p90)
         << ",\"p99_ms\":" << fmt_ms_json(m.p99)
         << ",\"p999_ms\":" << fmt_ms_json(m.p999)
         << ",\"mean_queue_depth\":" << fmt_rate(m.mean_queue_depth)
         << ",\"core_utilization\":" << fmt_rate(m.core_utilization)
         << ",\"arrivals\":" << m.arrivals
         << ",\"completed\":" << m.completed
         << ",\"dropped\":" << m.dropped
         << ",\"timed_out\":" << m.timed_out;
    if (batch_) out_ << ",\"batch\":" << lc.batch;
    if (lc.is_fleet()) {
      out_ << ",\"servers\":" << lc.servers
           << ",\"balancer\":\"" << loadgen::balancer_name(lc.balancer)
           << "\""
           << ",\"shards\":" << lc.shards
           << ",\"min_server_util\":" << fmt_rate(m.min_server_util)
           << ",\"max_server_util\":" << fmt_rate(m.max_server_util)
           << ",\"churn_arrived\":" << m.churn_arrived
           << ",\"churn_departed\":" << m.churn_departed
           << ",\"slo_ms\":" << fmt_ms(lc.slo_s)
           << ",\"within_slo\":" << (within_slo(lc, o) ? "true" : "false");
    }
    out_ << "}\n";
    return;
  }
  const auto& c = o.cell.config;
  const auto& r = o.result;
  out_ << "{\"campaign\":\"" << json_escape(o.campaign) << "\""
       << ",\"id\":\"" << json_escape(o.cell.id) << "\""
       << ",\"ka\":\"" << json_escape(c.ka) << "\""
       << ",\"sa\":\"" << json_escape(c.sa) << "\""
       << ",\"scenario\":\"" << json_escape(o.cell.scenario) << "\""
       << ",\"seed\":" << c.seed
       << ",\"ok\":" << (o.ok() ? "true" : "false")
       << ",\"timed_out\":" << (r.timed_out ? "true" : "false")
       << ",\"error\":\"" << json_escape(o.error) << "\""
       << ",\"samples\":" << r.samples.size()
       << ",\"median_part_a_ms\":" << fmt_ms(r.median_part_a)
       << ",\"median_part_b_ms\":" << fmt_ms(r.median_part_b)
       << ",\"median_total_ms\":" << fmt_ms(r.median_total)
       << ",\"client_bytes\":" << r.client_bytes
       << ",\"server_bytes\":" << r.server_bytes
       << ",\"handshakes_60s\":" << r.total_handshakes_60s << "}\n";
}

void CsvSink::begin(const CampaignSpec& spec, const RunnerOptions&) {
  batch_ = is_batch_campaign(spec);
  if (is_loadgen_campaign(spec)) {
    out_ << "campaign,id,ka,sa,arrival,policy,seed,ok,error,cores,backlog,"
            "offered_hs_s,achieved_hs_s,capacity_hs_s,p50_ms,p90_ms,p99_ms,"
            "p999_ms,mean_queue_depth,core_utilization,arrivals,completed,"
            "dropped,timed_out";
    if (batch_) out_ << ",batch";
    if (is_fleet_campaign(spec))
      out_ << ",servers,balancer,shards,min_server_util,max_server_util,"
              "churn_arrived,churn_departed,slo_ms,within_slo";
    out_ << "\n";
    return;
  }
  out_ << "campaign,id,ka,sa,scenario,seed,ok,timed_out,error,samples,"
          "median_part_a_ms,median_part_b_ms,median_total_ms,"
          "client_bytes,server_bytes,handshakes_60s\n";
}

void CsvSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen) {
    check_percentiles(o);
    const auto& lc = *o.cell.loadgen;
    const auto& m = o.load;
    out_ << csv_escape(o.campaign) << ',' << csv_escape(o.cell.id) << ','
         << csv_escape(lc.ka) << ',' << csv_escape(lc.sa) << ','
         << arrival_name(lc.arrival) << ',' << policy_name(lc.policy) << ','
         << lc.seed << ',' << (o.ok() ? "true" : "false") << ','
         << csv_escape(o.error) << ',' << lc.cores << ',' << lc.backlog
         << ',' << fmt_rate(m.offered_rate) << ','
         << fmt_rate(m.achieved_rate) << ','
         << fmt_rate(m.analytic_capacity) << ',' << fmt_ms(m.p50) << ','
         << fmt_ms(m.p90) << ',' << fmt_ms(m.p99) << ',' << fmt_ms(m.p999)
         << ',' << fmt_rate(m.mean_queue_depth) << ','
         << fmt_rate(m.core_utilization) << ',' << m.arrivals << ','
         << m.completed << ',' << m.dropped << ',' << m.timed_out;
    if (batch_) out_ << ',' << lc.batch;
    if (lc.is_fleet()) {
      out_ << ',' << lc.servers << ','
           << loadgen::balancer_name(lc.balancer) << ',' << lc.shards << ','
           << fmt_rate(m.min_server_util) << ','
           << fmt_rate(m.max_server_util) << ',' << m.churn_arrived << ','
           << m.churn_departed << ',' << fmt_ms(lc.slo_s) << ','
           << (within_slo(lc, o) ? "true" : "false");
    }
    out_ << '\n';
    return;
  }
  const auto& c = o.cell.config;
  const auto& r = o.result;
  out_ << csv_escape(o.campaign) << ',' << csv_escape(o.cell.id) << ','
       << csv_escape(c.ka) << ',' << csv_escape(c.sa) << ','
       << csv_escape(o.cell.scenario) << ',' << c.seed << ','
       << (o.ok() ? "true" : "false") << ','
       << (r.timed_out ? "true" : "false") << ',' << csv_escape(o.error)
       << ',' << r.samples.size() << ',' << fmt_ms(r.median_part_a) << ','
       << fmt_ms(r.median_part_b) << ',' << fmt_ms(r.median_total) << ','
       << r.client_bytes << ',' << r.server_bytes << ','
       << r.total_handshakes_60s << '\n';
}

void ArtifactCsvSink::begin(const CampaignSpec&, const RunnerOptions&) {
  out_ << "kem,sig,scenario,partAMedian,partBMedian,partAllMedian,"
          "clientBytes,serverBytes,total60s,serverCpuMs,clientCpuMs\n";
}

void ArtifactCsvSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen || !o.ok()) return;
  const auto& c = o.cell.config;
  const auto& r = o.result;
  out_ << csv_escape(c.ka) << ',' << csv_escape(c.sa) << ','
       << csv_quote(o.cell.scenario.empty() ? "No Emulation"
                                            : o.cell.scenario)
       << ',' << fmt_ms(r.median_part_a) << ',' << fmt_ms(r.median_part_b)
       << ',' << fmt_ms(r.median_total) << ',' << r.client_bytes << ','
       << r.server_bytes << ',' << r.total_handshakes_60s << ','
       << fmt_fixed(r.server_cpu_ms) << ',' << fmt_fixed(r.client_cpu_ms)
       << '\n';
}

void AsciiSink::begin(const CampaignSpec& spec, const RunnerOptions& opts) {
  layout_ = spec.ascii_layout;
  loadgen_ = is_loadgen_campaign(spec);
  char head[256];
  std::snprintf(head, sizeof(head), "%s — %s (%d cells)\n",
                spec.name.c_str(), spec.description.c_str(),
                static_cast<int>(spec.cells.size()));
  out_ << head;
  (void)opts;
  if (loadgen_) {
    std::snprintf(head, sizeof(head),
                  "%-34s %9s %9s %9s %9s %9s %7s %6s %6s\n", "cell",
                  "off[1/s]", "ach[1/s]", "cap[1/s]", "p50(ms)", "p99(ms)",
                  "qdepth", "drop", "t/o");
    out_ << head;
    return;
  }
  if (layout_ == AsciiLayout::kPerCell) {
    std::snprintf(head, sizeof(head),
                  "%-34s %10s %10s %10s %8s %10s %10s\n", "cell", "A med(ms)",
                  "B med(ms)", "tot(ms)", "# Total", "Client(B)",
                  "Server(B)");
    out_ << head;
  }
}

void AsciiSink::cell(const CellOutcome& o) {
  if (o.cell.loadgen) {
    check_percentiles(o);
    char line[256];
    if (!o.ok()) {
      std::snprintf(line, sizeof(line), "%-34s FAILED: %s\n",
                    o.cell.id.c_str(), o.error.c_str());
      out_ << line;
      return;
    }
    const auto& m = o.load;
    std::snprintf(line, sizeof(line),
                  "%-34s %9.1f %9.1f %9.1f %9.2f %9.2f %7.2f %6lld %6lld\n",
                  o.cell.id.c_str(), m.offered_rate, m.achieved_rate,
                  m.analytic_capacity, m.p50 * 1e3, m.p99 * 1e3,
                  m.mean_queue_depth, m.dropped, m.timed_out);
    out_ << line;
    return;
  }
  if (layout_ == AsciiLayout::kScenarioMatrix) {
    matrix_cells_.push_back(o);
    return;
  }
  char line[256];
  if (!o.ok()) {
    std::snprintf(line, sizeof(line), "%-34s FAILED: %s\n",
                  o.cell.id.c_str(), o.error.c_str());
    out_ << line;
    return;
  }
  const auto& r = o.result;
  std::snprintf(line, sizeof(line),
                "%-34s %10.2f %10.2f %10.2f %7.1fk %10zu %10zu\n",
                o.cell.id.c_str(), r.median_part_a * 1e3,
                r.median_part_b * 1e3, r.median_total * 1e3,
                static_cast<double>(r.total_handshakes_60s) / 1000.0,
                r.client_bytes, r.server_bytes);
  out_ << line;
}

void AsciiSink::finish() {
  if (layout_ != AsciiLayout::kScenarioMatrix) return;
  // Rows: "ka/sa" in first-seen order; columns: scenarios in first-seen
  // order; cell value: median total latency (ms).
  std::vector<std::string> scenarios, rows;
  std::map<std::pair<std::string, std::string>, const CellOutcome*> grid;
  for (const auto& o : matrix_cells_) {
    std::string row = o.cell.config.ka + "/" + o.cell.config.sa;
    if (std::find(rows.begin(), rows.end(), row) == rows.end())
      rows.push_back(row);
    if (std::find(scenarios.begin(), scenarios.end(), o.cell.scenario) ==
        scenarios.end())
      scenarios.push_back(o.cell.scenario);
    grid[{row, o.cell.scenario}] = &o;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%-34s", "cell");
  out_ << buf;
  for (const auto& s : scenarios) {
    std::snprintf(buf, sizeof(buf), " %12.12s", s.c_str());
    out_ << buf;
  }
  out_ << '\n';
  for (const auto& row : rows) {
    std::snprintf(buf, sizeof(buf), "%-34s", row.c_str());
    out_ << buf;
    for (const auto& s : scenarios) {
      auto it = grid.find({row, s});
      if (it != grid.end() && it->second->ok())
        std::snprintf(buf, sizeof(buf), " %12.2f",
                      it->second->result.median_total * 1e3);
      else
        std::snprintf(buf, sizeof(buf), " %12s", "FAIL");
      out_ << buf;
    }
    out_ << '\n';
  }
}

}  // namespace pqtls::campaign
