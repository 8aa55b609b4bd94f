/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a layer of the engine: a name, its
 * start and end on one steady clock, the span that caused it, and a
 * request id shared by every span of one served query.  Spans stay
 * in memory while the workload runs and are written out once, at
 * exit, so recording never does I/O inside a timed region.  A layer's
 * self time is its span's duration minus the part of that interval
 * its child spans cover.
 *
 * Every call site takes a possibly-null recorder: the untraced runs
 * pass nullptr and pay one branch per span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/timer.hh"

namespace perfbench
{

inline constexpr std::size_t kNoParent =
    std::numeric_limits<std::size_t>::max();

/** One recorded span; endNs == 0 while it is still open. */
struct SpanRecord
{
    std::string name;
    std::size_t parent = kNoParent;
    std::uint64_t request = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

/** Thread-safe append-only span store (ids are indices). */
class SpanRecorder
{
  public:
    std::size_t
    begin(std::string name, std::size_t parent = kNoParent,
          std::uint64_t request = 0)
    {
        const std::uint64_t now = clock_.elapsedNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({std::move(name), parent, request, now, 0});
        return spans_.size() - 1;
    }

    void
    end(std::size_t id)
    {
        const std::uint64_t now = clock_.elapsedNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id].endNs = now;
    }

    /** Copy of every span recorded so far. */
    std::vector<SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /**
     * Self time of every span: its duration minus the union of its
     * children's intervals clipped to it (children may overlap, as
     * concurrently served queries do).
     */
    static std::vector<std::uint64_t>
    selfTimes(const std::vector<SpanRecord> &spans)
    {
        std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            children(spans.size());
        for (const SpanRecord &s : spans) {
            if (s.parent != kNoParent)
                children[s.parent].emplace_back(s.startNs, s.endNs);
        }
        std::vector<std::uint64_t> self(spans.size(), 0);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            auto &kids = children[i];
            std::sort(kids.begin(), kids.end());
            std::uint64_t covered = 0;
            std::uint64_t reach = spans[i].startNs;
            for (auto [start, end] : kids) {
                start = std::max(start, reach);
                end = std::min(end, spans[i].endNs);
                if (end > start) {
                    covered += end - start;
                    reach = end;
                }
            }
            self[i] = spans[i].durationNs() - covered;
        }
        return self;
    }

    /** Write one JSON object per span; false if @p path fails. */
    bool
    writeJsonLines(const std::string &path) const
    {
        const std::vector<SpanRecord> all = spans();
        const std::vector<std::uint64_t> self = selfTimes(all);
        std::ofstream out(path);
        for (std::size_t i = 0; i < all.size(); ++i) {
            const SpanRecord &s = all[i];
            out << "{\"id\": " << i << ", \"parent\": "
                << (s.parent == kNoParent ? std::string("null")
                                          : std::to_string(s.parent))
                << ", \"name\": \"" << s.name
                << "\", \"request\": " << s.request
                << ", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs
                << ", \"self_ns\": " << self[i] << "}\n";
        }
        return static_cast<bool>(out);
    }

  private:
    khuzdul::Timer clock_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** Scoped span; a no-op when the recorder is null. */
class Span
{
  public:
    Span(SpanRecorder *recorder, std::string name,
         std::size_t parent = kNoParent, std::uint64_t request = 0)
        : recorder_(recorder),
          id_(recorder ? recorder->begin(std::move(name), parent,
                                         request)
                       : kNoParent)
    {}

    ~Span()
    {
        if (recorder_)
            recorder_->end(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Id to pass as a child's parent (kNoParent when untraced). */
    std::size_t id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    std::size_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
