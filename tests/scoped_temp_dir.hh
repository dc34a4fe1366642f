/**
 * @file
 * ScopedTempDir: a fresh, private directory for one test, removed
 * with everything in it when the object goes out of scope.
 *
 * Tests that touch the file system put their files here instead of at
 * fixed paths under the system temp directory, so parallel, shuffled
 * and repeated ctest runs never share or race on a file.
 */

#ifndef TOPO_TESTS_SCOPED_TEMP_DIR_HH
#define TOPO_TESTS_SCOPED_TEMP_DIR_HH

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace topo
{

class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        std::string templ =
            (std::filesystem::temp_directory_path() / "topo_test_XXXXXX")
                .string();
        if (mkdtemp(templ.data()) == nullptr)
            throw std::runtime_error("ScopedTempDir: mkdtemp failed");
        path_ = templ;
    }

    ~ScopedTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    /** The directory itself. */
    const std::string &path() const { return path_; }

    /** Path of @p name inside the directory (not created). */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace topo

#endif // TOPO_TESTS_SCOPED_TEMP_DIR_HH
