#ifndef XYSIG_SUPPORT_SERVER_HELPERS_H
#define XYSIG_SUPPORT_SERVER_HELPERS_H

/// \file server_helpers.h
/// What the server tests build their references and peers from: one
/// copy of each, so every suite compares against the same thing.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "server/fanout.h"
#include "server/transport.h"

namespace xysig::server {

/// Samples per period of every server test's pipelines and peers.
inline constexpr std::size_t kSpp = 256;

/// True when a and b have the same IEEE-754 bits (NaNs included).
[[nodiscard]] bool same_bits(double a, double b) noexcept;
/// True when a and b are as long and hold the same bits, element by element.
[[nodiscard]] bool same_bits(std::span<const double> a,
                             std::span<const double> b) noexcept;

/// The paper's Table-I bank over the paper stimulus, with `opts`.
[[nodiscard]] core::SignaturePipeline
make_pipeline(core::PipelineOptions opts = {.samples_per_period = kSpp});

/// An in-process peer: 2 workers at kSpp.
[[nodiscard]] LoopbackTransport::Options loopback_options();
[[nodiscard]] FanoutDriver::TransportFactory loopback_factory();

/// One member as a single process streams it.
struct ExpectedMember {
    std::string ndf_hex;
    std::optional<std::string> signature;
};

/// `job_line` run by one 2-worker SweepService at kSpp: the stream a
/// fanned-out run must merge to, bit for bit.
[[nodiscard]] std::vector<ExpectedMember>
single_process_reference(const std::string& job_line);

} // namespace xysig::server

#endif // XYSIG_SUPPORT_SERVER_HELPERS_H
