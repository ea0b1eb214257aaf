/**
 * @file
 * Filesystem helper implementation.
 */

#include "util/fileio.hh"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/logging.hh"

namespace mprobe
{

namespace fs = std::filesystem;

bool
atomicWriteFile(const std::string &path,
                const std::string &content,
                const std::string &what)
{
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp." << ::getpid() << "."
             << std::hash<std::thread::id>{}(
                    std::this_thread::get_id());
    {
        std::ofstream f(tmp_name.str());
        if (!f) {
            warn(cat(what, ": cannot write ", tmp_name.str()));
            return false;
        }
        f << content;
        f.close();
        if (!f) {
            warn(cat(what, ": short write, dropping ",
                     tmp_name.str()));
            std::error_code ec;
            fs::remove(tmp_name.str(), ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp_name.str(), path, ec);
    if (ec) {
        warn(cat(what, ": cannot publish ", path, ": ",
                 ec.message()));
        // The temp must not outlive the failure: serve workers
        // share cache directories, and leaked .tmp.<pid>.<tid> files
        // would accumulate across processes.
        std::error_code rm_ec;
        fs::remove(tmp_name.str(), rm_ec);
        return false;
    }
    return true;
}

} // namespace mprobe
