#include "support/server_helpers.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "core/paper_setup.h"
#include "monitor/table1.h"
#include "server/json.h"
#include "server/sweep_service.h"
#include "server/wire.h"

namespace xysig::server {

bool same_bits(double a, double b) noexcept {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const double> a, std::span<const double> b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) { return same_bits(x, y); });
}

core::SignaturePipeline make_pipeline(core::PipelineOptions opts) {
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

LoopbackTransport::Options loopback_options() {
    LoopbackTransport::Options opts;
    opts.workers = 2;
    opts.samples_per_period = kSpp;
    return opts;
}

FanoutDriver::TransportFactory loopback_factory() {
    return [] { return std::make_unique<LoopbackTransport>(loopback_options()); };
}

std::vector<ExpectedMember> single_process_reference(const std::string& job_line) {
    WireJob wire = parse_wire_job(JsonValue::parse(job_line));
    SweepService service(make_pipeline(), {.workers = 2});
    std::vector<ExpectedMember> out;
    (void)service.run(wire.job, [&](const SweepResult& r) {
        ExpectedMember m;
        m.ndf_hex = format_double_exact(r.ndf);
        if (r.signature.has_value())
            m.signature = signature_string(*r.signature);
        out.push_back(std::move(m));
    });
    return out;
}

} // namespace xysig::server
