// Monitor checkpoints: serialize the complete algorithmic state of a
// MonitorProcess into a versioned, CRC-sealed blob and restore it into a
// freshly constructed monitor (crash recovery, DESIGN.md §8).
//
// What is durable is exactly the state the lattice exploration depends on:
// the local event history, every live/quarantined global view with its
// cursor, parked tokens, peer termination knowledge, probe/spawn dedup sets,
// id counters and declared verdicts. What is *not* durable -- free lists,
// merge scratch, callbacks, statistics -- is reconstructible or irrelevant
// to soundness, so a restored monitor resumes on the same lattice paths it
// was tracing when the snapshot was taken.
//
// Format ("DMCK" blob):
//   magic "DMCK" | version u8 | index u32 | n u32 | body_size u32 |
//   body | crc32 u32
// The body opens with the streaming-GC window state -- the history base
// offset, per-peer trim floors and the GC cadence counter -- and the
// floor-resync epochs (DESIGN.md §13): our advertisement epoch plus the
// stored epoch of each peer's floor. The history section holds only the
// retained window (events base..base+count). Parked tokens use the wire
// codec's token unit layout (write_token). Only the current version is
// read: blobs never outlive the process that wrote them.
// The CRC (wire_crc32, reflected 0xEDB88320) covers every byte before it.
// Unordered sets are written sorted, so snapshot -> restore -> snapshot is
// byte-identical. Decoding is all-or-nothing: any truncation, flipped byte,
// version skew or semantic violation throws CheckpointError and leaves the
// target monitor untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "decmon/monitor/wire.hpp"

namespace decmon {

class MonitorProcess;

/// Decode/validation failure. Derives from WireError so call sites can
/// treat transport and checkpoint corruption uniformly.
class CheckpointError : public WireError {
 public:
  explicit CheckpointError(const std::string& what) : WireError(what) {}
};

inline constexpr std::uint8_t kCheckpointVersion = 5;

/// Snapshot the monitor's full algorithmic state. The monitor must be
/// quiescent (not inside a dispatch) -- checkpoints are taken between hook
/// invocations; throws CheckpointError otherwise.
std::vector<std::uint8_t> checkpoint_monitor(const MonitorProcess& monitor);

/// Replace `monitor`'s algorithmic state with the snapshot's. The monitor
/// must have been constructed with the same index, process count and
/// property as the snapshotted one (index/width are validated; the property
/// is the caller's contract). Strong exception safety: on throw, `monitor`
/// is unchanged.
void restore_monitor(MonitorProcess& monitor,
                     const std::vector<std::uint8_t>& blob);

}  // namespace decmon
