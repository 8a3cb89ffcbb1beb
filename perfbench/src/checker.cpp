#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "core/paper_setup.h"
#include "filter/cut.h"
#include "server/json.h"

namespace perfbench {

using xysig::server::JsonValue;
using xysig::server::WireJob;

namespace {

[[nodiscard]] std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// The job line with `members` narrowed to the one global member m.
[[nodiscard]] std::string one_member_line(const std::string& line, std::size_t m) {
    JsonValue::Object o = JsonValue::parse_strict(line).as_object();
    JsonValue::Object members;
    members.emplace("first", m);
    members.emplace("count", std::size_t{1});
    o["members"] = JsonValue(std::move(members));
    return JsonValue(std::move(o)).dump();
}

} // namespace

WireJob decode_job_line(const std::string& line) {
    return xysig::server::parse_wire_job(JsonValue::parse_strict(line));
}

void set_reference_golden(xysig::core::SignaturePipeline& pipe, const WireJob& wire) {
    if (wire.is_spice) {
        const auto& obs = wire.observation;
        const xysig::filter::SpiceCut golden(
            std::make_unique<xysig::spice::Netlist>(wire.nominal->clone()),
            obs.input_source, obs.x_node, obs.y_node, obs.settle_periods);
        pipe.set_golden(golden);
    } else {
        pipe.set_golden(xysig::filter::BehaviouralCut(xysig::core::paper_biquad()));
    }
}

std::vector<std::size_t> sample_members(std::uint64_t seed,
                                        const std::string& job_id,
                                        std::size_t first, std::size_t count,
                                        const std::vector<ParsedResult>& results,
                                        std::size_t k) {
    std::set<std::size_t> picked;
    if (count > 0) {
        xysig::Rng rng(seed ^ fnv1a(job_id));
        const std::size_t want = std::min(k, count);
        while (picked.size() < want)
            picked.insert(first + static_cast<std::size_t>(rng.uniform_int(
                                      0, static_cast<std::int64_t>(count) - 1)));
    }
    for (const ParsedResult& r : results) {
        if (r.ndf_hex == "nan") {
            picked.insert(r.member);
            break;
        }
    }
    return {picked.begin(), picked.end()};
}

Checker::Checker(std::size_t samples_per_period, std::uint64_t seed,
                 std::size_t samples_per_job)
    : spp_(samples_per_period), seed_(seed), samples_per_job_(samples_per_job) {}

const xysig::core::SignaturePipeline&
Checker::reference_pipeline(const WireJob& wire) {
    const bool fast = wire.job.fast_math.value_or(false);
    const std::string key =
        wire.is_spice ? "spice|settle=" + std::to_string(wire.observation.settle_periods)
                      : (fast ? "dev|fast" : "dev|exact");
    auto& slot = pipes_[key];
    if (!slot) {
        slot = std::make_unique<xysig::core::SignaturePipeline>(
            xysig::server::make_paper_pipeline(spp_));
        slot->set_fast_math(fast);
        set_reference_golden(*slot, wire);
    }
    return *slot;
}

bool Checker::check_job(const JobRecord& job,
                        const std::map<std::string, const JobRecord*>& by_id,
                        std::vector<std::string>& problems, CheckResult& counts) {
    bool ok = true;
    auto fail = [&](const std::string& why) {
        problems.push_back(job.id + ": " + why);
        ok = false;
    };
    if (!job.error.empty()) {
        fail("error event: " + job.error);
        return false;
    }
    if (!job.finished) {
        fail("no job_done before the deadline");
        return false;
    }
    WireJob wire;
    try {
        wire = decode_job_line(job.line);
    } catch (const std::exception& e) {
        fail(std::string("job line does not decode: ") + e.what());
        return false;
    }
    const std::size_t first = wire.member_offset;
    const std::size_t count = wire.job.size();
    if (job.cancelled)
        fail("job_done reports cancelled");
    if (job.members_total != count || job.members_done != count)
        fail("members_done/members_total " + std::to_string(job.members_done) + "/" +
             std::to_string(job.members_total) + ", expected " + std::to_string(count));
    if (job.results.size() != count)
        fail(std::to_string(job.results.size()) + " results, expected " +
             std::to_string(count));
    std::map<std::size_t, const ParsedResult*> by_member;
    bool in_order = true;
    for (std::size_t i = 0; i < job.results.size(); ++i) {
        const ParsedResult& r = job.results[i];
        by_member.emplace(r.member, &r);
        if (in_order && r.member != first + i) {
            fail("member " + std::to_string(r.member) + " at position " +
                 std::to_string(i) + ", expected " + std::to_string(first + i) +
                 " (gap or disorder)");
            in_order = false;
        }
    }
    for (const ParsedResult& r : job.results)
        if (!r.decimal_agrees)
            fail("member " + std::to_string(r.member) +
                 ": ndf decimal disagrees with ndf_hex " + r.ndf_hex);

    if (!job.origin_id.empty()) {
        // A cache replay: byte-identical to the origin's lines, id aside.
        const auto it = by_id.find(job.origin_id);
        if (it == by_id.end()) {
            fail("origin " + job.origin_id + " not in the stream");
        } else {
            std::map<std::size_t, const std::string*> origin_body;
            for (const ParsedResult& r : it->second->results)
                origin_body.emplace(r.member, &r.body);
            for (const ParsedResult& r : job.results) {
                const auto o = origin_body.find(r.member);
                if (o == origin_body.end() || *o->second != r.body) {
                    fail("member " + std::to_string(r.member) +
                         " differs from origin " + job.origin_id);
                    break;
                }
            }
        }
    } else {
        for (const std::size_t m : sample_members(seed_, job.id, first, count,
                                                  job.results, samples_per_job_)) {
            const auto it = by_member.find(m);
            if (it == by_member.end()) {
                fail("sampled member " + std::to_string(m) + " missing");
                continue;
            }
            const WireJob one = decode_job_line(one_member_line(job.line, m));
            const double ref =
                xysig::server::wire_serial_reference(one, reference_pipeline(one)).at(0);
            ++counts.members_recomputed;
            const std::string want = xysig::format_double_exact(ref);
            if (want != it->second->ndf_hex)
                fail("member " + std::to_string(m) + ": ndf_hex " +
                     it->second->ndf_hex + ", reference " + want);
        }
    }

    std::vector<const std::string*> lines;
    lines.push_back(&job.line);
    for (const std::string& l : job.event_lines)
        lines.push_back(&l);
    for (std::size_t i = 0; i < job.results.size(); ++i)
        if (i % 25 == 0 || i + 1 == job.results.size())
            if (!job.results[i].line.empty())
                lines.push_back(&job.results[i].line);
    for (const std::string* l : lines) {
        try {
            xysig::server::check_protocol_line(*l);
            ++counts.lines_validated;
        } catch (const std::exception& e) {
            fail(std::string("protocol check: ") + e.what());
        }
    }
    return ok;
}

bool Checker::corrupt(JobRecord& job, bool flip, bool drop) const {
    if (job.results.size() < 3)
        return false;
    const WireJob wire = decode_job_line(job.line);
    std::size_t flip_member = job.results.front().member;
    for (const std::size_t m : sample_members(seed_, job.id, wire.member_offset,
                                              wire.job.size(), job.results,
                                              samples_per_job_)) {
        const ParsedResult& r = job.results[m - wire.member_offset];
        if (r.ndf_hex != "nan") {
            flip_member = m;
            break;
        }
    }
    const bool raw = !job.result_lines.empty();
    if (flip) {
        const std::size_t i = flip_member - wire.member_offset;
        const std::string old_hex = job.results[i].ndf_hex;
        double v = std::strtod(old_hex.c_str(), nullptr);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof v);
        bits ^= 1U;
        std::memcpy(&v, &bits, sizeof v);
        const std::string new_hex = xysig::format_double_exact(v);
        if (raw) {
            std::string& line = job.result_lines[i];
            const std::string needle = "\"ndf_hex\":\"" + old_hex + "\"";
            line.replace(line.find(needle), needle.size(),
                         "\"ndf_hex\":\"" + new_hex + "\"");
        } else {
            job.results[i].ndf_hex = new_hex;
        }
    }
    if (drop) {
        // Drop a member other than the flipped one, mid-stream.
        std::size_t i = job.results.size() / 2;
        if (job.results[i].member == flip_member)
            ++i;
        if (raw)
            job.result_lines.erase(job.result_lines.begin() +
                                   static_cast<std::ptrdiff_t>(i));
        else
            job.results.erase(job.results.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (raw)
        parse_record(job);
    return true;
}

bool Checker::self_test(const JobRecord& job, std::string& report) {
    const std::map<std::string, const JobRecord*> by_id;
    bool all_caught = true;
    for (const bool flip : {true, false}) {
        JobRecord bad = job;
        if (!corrupt(bad, flip, !flip)) {
            report = "self-test: job " + job.id + " has too few results";
            return false;
        }
        std::vector<std::string> problems;
        CheckResult counts;
        const bool caught = !check_job(bad, by_id, problems, counts);
        report += std::string(report.empty() ? "" : "; ") +
                  (flip ? "flipped ndf_hex bit " : "dropped member ") +
                  (caught ? "caught (" + problems.front() + ")" : "NOT caught");
        all_caught = all_caught && caught;
    }
    return all_caught;
}

} // namespace perfbench
