// A pair of pipes to a child process forked from the benchmark, with
// buffered, typed reads and writes.
//
// The benchmark's reference computations run in such a child (see
// main.cpp), so that the benchmark process's peak RSS counts the program's
// memory and not the benchmark's own copies of the graph and the expected
// values. Both ends belong to one build of one binary, so plain values are
// sent as raw bytes.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

class Channel {
 public:
  /// Forks a child that runs `serve` on its end of the channel and exits
  /// when `serve` returns or the parent's end closes; returns the parent's
  /// end. Call it while the process has a single thread.
  static std::unique_ptr<Channel> Fork(const std::function<void(Channel&)>& serve);

  /// In the parent: closes both pipes and waits for the child to exit.
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void PutBytes(const void* data, size_t size);
  template <class T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&value, sizeof(value));
  }
  void PutString(const std::string& s);
  void PutDoubles(const std::vector<double>& values);
  /// Sends `n` values, `at(0)` .. `at(n - 1)`, without holding them all.
  void PutDoubles(size_t n, const std::function<double(size_t)>& at);
  /// Sends everything buffered; call before waiting for an answer.
  void Flush();

  /// Reads exactly `size` bytes. If the other end has closed, the child
  /// exits quietly and the parent exits with code 1 and a message.
  void GetBytes(void* data, size_t size);
  template <class T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    GetBytes(&value, sizeof(value));
    return value;
  }
  std::string GetString();
  std::vector<double> GetDoubles();

 private:
  Channel(int in, int out, pid_t child) : in_(in), out_(out), child_(child) {}
  [[noreturn]] void Closed() const;
  void WriteAll(const char* data, size_t size);

  int in_;
  int out_;
  pid_t child_;  ///< the child's pid at the parent's end, 0 at the child's
  std::vector<char> out_buf_;
  std::vector<char> in_buf_;
  size_t in_pos_ = 0;
};

}  // namespace perfbench
