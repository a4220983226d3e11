#include "sim/jobs/results.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/hashing.h"
#include "common/publish.h"

namespace moka {
namespace {

/** JSON string escaping for the characters a CSV row may hold. */
std::string
escape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
    }
    return out;
}

/** The %.17g serialization of @p v (exact double round trip). */
std::string
format_double(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** FNV-1a @p s into @p h, then a separator: ("ab","c") != ("a","bc"). */
void
feed(std::uint64_t &h, const std::string &s)
{
    h = fnv1a_64(s.data(), s.size(), h);
    h = fnv1a_64("\x1f", 1, h);
}

}  // namespace

std::uint64_t
record_checksum(const ResultRecord &rec)
{
    std::uint64_t h = kFnv1aOffset;
    feed(h, std::to_string(rec.job_id));
    feed(h, rec.csv);
    for (const double v : rec.aux) {
        feed(h, format_double(v));
    }
    return h;
}

std::string
to_jsonl(const ResultRecord &rec)
{
    std::string out = "{\"job\":" + std::to_string(rec.job_id) +
                      ",\"attempts\":" + std::to_string(rec.attempts) +
                      ",\"csv\":\"" + escape(rec.csv) + "\",\"aux\":[";
    for (std::size_t i = 0; i < rec.aux.size(); ++i) {
        out += (i > 0 ? "," : "") + format_double(rec.aux[i]);
    }
    return out + "],\"sum\":" + std::to_string(record_checksum(rec)) + "}";
}

bool
from_jsonl(const std::string &line, ResultRecord &rec, std::string *error)
{
    const auto fail = [error](const char *what) {
        if (error != nullptr) {
            *error = what;
        }
        return false;
    };
    // Fields come in the fixed order to_jsonl writes them.
    unsigned long long job = 0;
    int at = -1;
    if (std::sscanf(line.c_str(),
                    "{\"job\":%llu,\"attempts\":%d,\"csv\":\"%n", &job,
                    &rec.attempts, &at) != 2 ||
        at < 0) {
        return fail("not a result record");
    }
    rec.job_id = static_cast<std::size_t>(job);
    rec.csv.clear();
    std::size_t i = static_cast<std::size_t>(at);
    for (; i < line.size() && line[i] != '"'; ++i) {
        char c = line[i];
        if (c == '\\' && i + 1 < line.size()) {
            c = line[++i];
            c = c == 'n' ? '\n' : c == 'r' ? '\r' : c == 't' ? '\t' : c;
        }
        rec.csv += c;
    }
    const std::string aux = "\",\"aux\":[";
    const std::size_t close = line.find(']', i);
    if (line.compare(i, aux.size(), aux) != 0 || close == std::string::npos) {
        return fail("truncated record");
    }
    rec.aux.clear();
    for (const char *p = line.c_str() + i + aux.size();
         p < line.c_str() + close;) {
        char *end = nullptr;
        rec.aux.push_back(std::strtod(p, &end));
        if (end == p) {
            return fail("malformed aux");
        }
        p = *end == ',' ? end + 1 : end;
    }
    unsigned long long sum = 0;
    int tail = -1;
    if (std::sscanf(line.c_str() + close, "],\"sum\":%llu}%n", &sum,
                    &tail) != 1 ||
        close + static_cast<std::size_t>(tail) != line.size()) {
        return fail("truncated record");
    }
    if (sum != record_checksum(rec)) {
        return fail("checksum mismatch (corrupt record)");
    }
    return true;
}

ResultDir::ResultDir(std::string dir, std::uint64_t sweep_key,
                     ProcessFaultPlan kills)
    : dir_(std::move(dir)), sweep_key_(sweep_key), kills_(kills)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
}

std::string
ResultDir::base_path(const JobSpec &spec) const
{
    const WorkloadSpec &w = spec.workload;
    std::uint64_t h = sweep_key_;
    for (const std::string &field :
         {w.name, w.suite, std::to_string(static_cast<int>(w.family)),
          std::to_string(w.variant), std::to_string(w.seed),
          std::to_string(w.memory_intensive), spec.trace_path, spec.scheme,
          spec.prefetcher, std::to_string(spec.run.warmup_insts),
          std::to_string(spec.run.measure_insts),
          std::to_string(std::bit_cast<std::uint64_t>(
              spec.large_page_fraction)),
          std::to_string(spec.watchdog_steps)}) {
        feed(h, field);
    }
    char name[17];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(h));
    return dir_ + "/" + name;
}

std::string
ResultDir::record_path(const JobSpec &spec) const
{
    return base_path(spec) + ".jsonl";
}

bool
ResultDir::load(const JobSpec &spec, JobResult &res) const
{
    const std::string path = record_path(spec);
    std::string line;
    if (!read_file(path, line)) {
        return false;
    }
    if (!line.empty() && line.back() == '\n') {
        line.pop_back();
    }
    ResultRecord rec;
    std::string error;
    if (!from_jsonl(line, rec, &error)) {
        std::fprintf(stderr,  // LINT_LOG_OK: corrupt-record warning
                     "results: dropping %s (%s); recomputing job %zu\n",
                     path.c_str(), error.c_str(), spec.id);
        std::remove(path.c_str());
        return false;
    }
    res.status = JobStatus::kCompleted;
    res.attempts = rec.attempts;
    res.csv = std::move(rec.csv);
    res.output.aux = std::move(rec.aux);
    res.reused = true;
    return true;
}

bool
ResultDir::claim(const JobSpec &spec, bool first_pass)
{
    // "x": exclusive create, so exactly one process wins the claim.
    std::FILE *f = std::fopen((base_path(spec) + ".claim").c_str(), "wx");
    if (f != nullptr) {
        // LINT_IO_OK: empty marker; its existence is the whole claim.
        std::fclose(f);
    } else if (first_pass) {
        return false;
    }
    kills_.maybe_kill(KillPoint::kRun, spec.id);
    return true;
}

void
ResultDir::settle(const JobSpec &spec, const JobResult &res)
{
    if (res.status == JobStatus::kCompleted) {
        const ResultRecord rec{spec.id, res.attempts, res.csv,
                               res.output.aux};
        const bool stored = publish_file(
            record_path(spec), to_jsonl(rec) + "\n",
            [&] { kills_.maybe_kill(KillPoint::kCommit, spec.id); });
        if (!stored) {
            std::fprintf(stderr,  // LINT_LOG_OK: degraded-reuse warning
                         "results: cannot store job %zu in %s\n", spec.id,
                         dir_.c_str());
        }
    }
    std::remove((base_path(spec) + ".claim").c_str());
}

}  // namespace moka
