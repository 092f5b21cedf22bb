// The benchmark's own analyst executables. In Privid the PROCESS
// executable is analyst code, so the benchmark may supply its own; doing
// so lets it time the CV calls (ChunkView::detect_into, cv::Tracker::step)
// from outside the library.
#pragma once

#include "cv/detector.hpp"
#include "cv/tracker.hpp"
#include "engine/sandbox.hpp"

namespace perfbench {

// Rows (entered:NUMBER, dwell:NUMBER, side:NUMBER): one row per confirmed
// track that enters during the chunk, with its dwell in seconds and which
// half of the frame (0 top, 1 bottom) it was last seen in.
privid::engine::Executable make_tracking_counter(privid::cv::DetectorConfig det,
                                                 privid::cv::TrackerConfig trk);

// Rows (seen:NUMBER): detections summed over one frame every `sample_s`
// seconds of the chunk — detector work without a tracker.
privid::engine::Executable make_sampling_counter(privid::cv::DetectorConfig det,
                                                 double sample_s);

}  // namespace perfbench
