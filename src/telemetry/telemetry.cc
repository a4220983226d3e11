#include "telemetry/telemetry.h"

#include <filesystem>

namespace moka {

namespace telemetry_detail {
std::atomic<bool> g_enabled{false};
}  // namespace telemetry_detail

void
set_telemetry_enabled(bool enabled)
{
    telemetry_detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

TelemetrySession::TelemetrySession(std::string dir, std::string trace_path)
    : dir_(std::move(dir)), trace_path_(std::move(trace_path))
{
    if (!dir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        // An uncreatable directory surfaces as a write failure later;
        // the session itself stays usable for tracing.
    }
    if (!trace_path_.empty()) {
        const auto parent =
            std::filesystem::path(trace_path_).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
        }
        tracer_ = std::make_unique<Tracer>();
    }
    if (active()) {
        set_telemetry_enabled(true);
    }
}

std::string
TelemetrySession::sanitize_label(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok) {
            c = '_';
        }
    }
    return out;
}

std::string
TelemetrySession::flush()
{
    if (tracer_ == nullptr) {
        return "";
    }
    return tracer_->write_json_file(trace_path_) ? trace_path_ : "";
}

}  // namespace moka
