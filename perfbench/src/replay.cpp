#include "replay.h"

#include <map>
#include <optional>

#include "capture/chronogram.h"
#include "capture/fault_injection.h"
#include "checker.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/ndf.h"
#include "core/paper_setup.h"
#include "core/pipeline.h"
#include "core/trace_cache.h"
#include "filter/cut.h"
#include "server/json.h"
#include "server/wire.h"
#include "signal/sampled.h"
#include "spice/dc.h"
#include "spice/transient.h"

namespace perfbench {

using xysig::NumericError;
using xysig::SampleMode;
using xysig::server::JsonValue;
using Scope = SpanRecorder::Scope;

namespace {

/// The result event exactly as ServerSession::emit_job_events builds it.
[[nodiscard]] std::string encode_result(const xysig::server::WireJob& wire,
                                        std::size_t member, double ndf,
                                        const std::string& label,
                                        const std::optional<std::string>& signature,
                                        std::size_t zone_visits) {
    JsonValue::Object o;
    o.emplace("event", "result");
    if (!wire.id.empty())
        o.emplace("id", wire.id);
    o.emplace("member", member);
    o.emplace("ndf", ndf);
    o.emplace("ndf_hex", xysig::format_double_exact(ndf));
    o.emplace("label", label);
    if (signature.has_value()) {
        o.emplace("signature", *signature);
        o.emplace("zone_visits", zone_visits);
    }
    return JsonValue(std::move(o)).dump();
}

} // namespace

ReplayCounts replay_jobs(const std::vector<const JobRecord*>& jobs,
                         std::size_t spp, std::uint64_t seed, std::size_t per_job,
                         std::size_t max_jobs, SpanRecorder& spans) {
    ReplayCounts c;
    xysig::core::SignaturePipeline behavioural = xysig::server::make_paper_pipeline(spp);
    xysig::core::SignaturePipeline spice_pipe = xysig::server::make_paper_pipeline(spp);
    xysig::core::NdfScratch scratch;
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<double> stimulus_samples;
    std::vector<unsigned> codes;
    std::vector<xysig::capture::CodeEvent> events;
    xysig::spice::TransientResult tran;
    auto& trace_cache = xysig::core::StimulusTraceCache::instance();

    for (const JobRecord* job : jobs) {
        if (c.jobs == max_jobs)
            break;
        const std::string& id = job->id;
        Scope job_span(spans, "replay.job", id);
        const std::size_t hits0 = trace_cache.hits();
        const std::size_t misses0 = trace_cache.misses();
        xysig::server::WireJob wire;
        {
            Scope s(spans, "wire.decode", id);
            wire = xysig::server::parse_wire_job(JsonValue::parse_strict(job->line));
        }
        ++c.jobs;
        if (!job->origin_id.empty())
            continue; // a cache replay: nothing is evaluated for it

        const bool fast = wire.job.fast_math.value_or(false);
        const SampleMode mode = fast ? SampleMode::fast_math : SampleMode::exact;
        xysig::core::SignaturePipeline& pipe = wire.is_spice ? spice_pipe : behavioural;
        pipe.set_fast_math(fast); // as SweepService::run pins the job's mode
        const auto& obs = wire.observation;
        {
            Scope s(spans, "golden.set", id);
            set_reference_golden(pipe, wire);
        }
        {
            Scope s(spans, "signal.sample", id);
            xysig::SampledSignal::sample_waveform_into(pipe.stimulus(), 0.0,
                                                       pipe.stimulus().period(), spp,
                                                       stimulus_samples, mode);
        }

        // SPICE: one clone per job, faults injected and repaired in place,
        // as a sweep-service worker does.
        std::optional<xysig::spice::Netlist> netlist;
        std::optional<xysig::filter::SpiceCut> spice_cut;
        xysig::spice::TransientOptions tran_opts;
        if (wire.is_spice) {
            netlist.emplace(wire.nominal->clone());
            spice_cut.emplace(*netlist, obs.input_source, obs.x_node, obs.y_node,
                              obs.settle_periods);
            const double period = pipe.stimulus().period();
            tran_opts.t_stop = static_cast<double>(obs.settle_periods + 1) * period;
            tran_opts.dt = period / static_cast<double>(spp);
        }
        const xysig::filter::Biquad nominal = xysig::core::paper_biquad();

        std::map<std::size_t, const ParsedResult*> served_by_member;
        for (const ParsedResult& r : job->results)
            served_by_member.emplace(r.member, &r);

        for (const std::size_t m : sample_members(seed, id, wire.member_offset,
                                                  wire.job.size(), job->results,
                                                  per_job)) {
            const auto served_it = served_by_member.find(m);
            if (served_it == served_by_member.end()) {
                c.mismatches.push_back(id + ": member " + std::to_string(m) +
                                       " was not served");
                continue;
            }
            const ParsedResult& served = *served_it->second;
            const std::size_t local = m - wire.member_offset;
            Scope member_span(spans, "replay.member", id);

            std::optional<xysig::filter::BehaviouralCut> behavioural_cut;
            std::optional<xysig::capture::FaultRepair> repair;
            std::string label;
            if (wire.is_spice) {
                const auto& fault = wire.faults[local];
                label = fault.description();
                Scope s(spans, "capture.inject", id);
                repair = xysig::capture::inject_fault(*netlist, fault);
            } else {
                const double dev = wire.deviations[local];
                const double frac = dev / 100.0;
                behavioural_cut.emplace(wire.parameter == xysig::core::SweptParameter::f0
                                            ? nominal.with_f0_shift(frac)
                                            : nominal.with_q_shift(frac));
                label = std::string("dev(") +
                        (wire.parameter == xysig::core::SweptParameter::f0 ? "f0" : "q") +
                        "," + xysig::format_double(dev, 6) + "%)";
            }
            const xysig::filter::Cut& cut =
                wire.is_spice ? static_cast<const xysig::filter::Cut&>(*spice_cut)
                              : *behavioural_cut;

            double evaluated = kNaN;
            {
                Scope s(spans, "pipeline.evaluate", id);
                try {
                    evaluated = pipe.evaluate(cut, scratch).ndf;
                } catch (const NumericError&) {
                    // Streams as NaN, exactly like the service.
                }
            }

            double staged = kNaN;
            std::optional<xysig::capture::Chronogram> observed;
            {
                Scope s(spans, "pipeline.stages", id);
                try {
                    double dt = 0.0;
                    if (wire.is_spice) {
                        Scope r(spans, "spice.respond", id);
                        spice_cut->respond_into(pipe.stimulus(), spp, xs, ys, dt);
                    } else {
                        const std::vector<double>& trace = *pipe.stimulus_trace();
                        xs.assign(trace.begin(), trace.end());
                        Scope r(spans,
                                fast ? "filter.respond_y.fast" : "filter.respond_y.exact",
                                id);
                        behavioural_cut->respond_y_into(pipe.stimulus(), spp, ys, dt, mode);
                    }
                    {
                        Scope z(spans, fast ? "kernels.zone.fast" : "kernels.zone.exact",
                                id);
                        pipe.compiled_bank().codes_into(xs, ys, codes, mode);
                    }
                    {
                        Scope e(spans, "capture.encode", id);
                        xysig::capture::Chronogram::encode_codes(codes, dt, events);
                    }
                    observed.emplace(dt * static_cast<double>(xs.size()),
                                     static_cast<unsigned>(pipe.bank().size()), events);
                    Scope n(spans, "ndf", id);
                    staged = xysig::core::ndf(*observed, pipe.golden());
                } catch (const NumericError&) {
                    ++c.numeric_error_members;
                }
            }

            if (wire.is_spice) {
                ++c.spice_members;
                {
                    Scope s(spans, "spice.dc_op", id);
                    try {
                        const auto op = xysig::spice::dc_operating_point(*netlist);
                        c.dc_newton_iterations +=
                            static_cast<std::size_t>(op.newton_iterations);
                        if (op.used_gmin_stepping || op.used_source_stepping)
                            ++c.dc_ladder_members;
                    } catch (const NumericError&) {
                        ++c.dc_ladder_members; // the whole ladder ran and failed
                    }
                }
                {
                    Scope s(spans, "spice.tran", id);
                    try {
                        xysig::spice::run_transient_into(*netlist, tran_opts, tran);
                        c.tran_newton_iterations +=
                            static_cast<std::size_t>(tran.total_newton_iterations);
                        c.tran_steps += tran.step_count();
                    } catch (const NumericError&) {
                        // Counted through numeric_error_members above.
                    }
                }
                Scope s(spans, "capture.repair", id);
                xysig::capture::repair_fault(*netlist, *repair);
            }

            ++c.members;
            if (observed.has_value())
                c.zone_visits += observed->zone_visits();
            std::optional<std::string> signature;
            std::string line;
            {
                Scope s(spans, "wire.encode", id);
                if (wire.emit_signatures && observed.has_value())
                    signature = xysig::server::signature_string(*observed);
                line = encode_result(wire, m, staged, label, signature,
                                     observed.has_value() ? observed->zone_visits() : 0);
            }
            c.result_bytes += line.size();
            ++c.results_encoded;

            const std::string evaluated_hex = xysig::format_double_exact(evaluated);
            const std::string staged_hex = xysig::format_double_exact(staged);
            if (evaluated_hex != served.ndf_hex || staged_hex != served.ndf_hex)
                c.mismatches.push_back(id + ": member " + std::to_string(m) +
                                       " served " + served.ndf_hex + ", evaluate " +
                                       evaluated_hex + ", stages " + staged_hex);
            else if (!served.line.empty() && line != served.line)
                c.mismatches.push_back(id + ": member " + std::to_string(m) +
                                       " re-encoded result line differs from the served one");
            else if (served.line.empty() &&
                     (served.label != label || served.signature != signature))
                c.mismatches.push_back(id + ": member " + std::to_string(m) +
                                       " label or signature differs from the served one");
        }
        c.trace_cache_hits += trace_cache.hits() - hits0;
        c.trace_cache_misses += trace_cache.misses() - misses0;
    }
    return c;
}

} // namespace perfbench
