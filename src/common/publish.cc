#include "common/publish.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>

namespace moka {

bool
publish_file(const std::string &path, const std::string &bytes,
             const std::function<void()> &before_rename)
{
    // The pid keeps processes apart, the counter keeps threads (and
    // two engines in one process) apart.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(serial.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os.good()) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (before_rename) {
        before_rename();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
read_file(const std::string &path, std::string &out)
{
    // Sized read straight into @p out: snapshot files run to a
    // megabyte, and a stringstream would copy them twice.
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        return false;
    }
    const std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0)) {
        return false;
    }
    out.resize(static_cast<std::size_t>(size));
    is.read(out.data(), static_cast<std::streamsize>(size));
    return is.gcount() == static_cast<std::streamsize>(size);
}

}  // namespace moka
