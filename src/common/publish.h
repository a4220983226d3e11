/**
 * @file
 * Atomic file publication shared by the warmup-snapshot cache and the
 * job result directory: bytes go to a temp file unique to this
 * process and call, which is then renamed over the target. Readers
 * see either no file or a complete one. Publishers racing on one
 * target with equal bytes are benign: the last rename wins.
 */
#ifndef MOKASIM_COMMON_PUBLISH_H
#define MOKASIM_COMMON_PUBLISH_H

#include <functional>
#include <string>

namespace moka {

/**
 * Publish @p bytes at @p path by write-temp+rename. @p before_rename
 * (may be empty) runs after the temp file is complete and before the
 * rename, which is where a crash test kills the process.
 * @return false when the write or the rename failed; the temp file is
 *         removed and @p path is left as it was.
 */
bool publish_file(const std::string &path, const std::string &bytes,
                  const std::function<void()> &before_rename = {});

/** Whole-file read; false when absent or unreadable. */
bool read_file(const std::string &path, std::string &out);

}  // namespace moka

#endif  // MOKASIM_COMMON_PUBLISH_H
