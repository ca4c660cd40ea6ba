#include "channel.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

constexpr size_t kBufferBytes = 1 << 16;

}  // namespace

std::unique_ptr<Channel> Channel::Fork(const std::function<void(Channel&)>& serve) {
  int to_child[2], to_parent[2];
  if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(to_parent, O_CLOEXEC) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  std::fflush(nullptr);  // nothing buffered may be written twice
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(to_child[1]);
    close(to_parent[0]);
    Channel child(to_child[0], to_parent[1], 0);
    serve(child);
    child.Flush();
    _exit(0);  // no atexit handlers or static destructors of the parent's state
  }
  close(to_child[0]);
  close(to_parent[1]);
  return std::unique_ptr<Channel>(new Channel(to_parent[0], to_child[1], pid));
}

Channel::~Channel() {
  close(out_);
  close(in_);
  if (child_ > 0) {
    int status = 0;
    while (waitpid(child_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

void Channel::Closed() const {
  if (child_ == 0) _exit(0);
  std::fprintf(stderr, "perfbench: the reference process ended unexpectedly\n");
  std::exit(1);
}

void Channel::PutBytes(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  if (out_buf_.size() + size > kBufferBytes) Flush();
  if (size >= kBufferBytes) return WriteAll(p, size);  // large payloads skip the buffer
  out_buf_.insert(out_buf_.end(), p, p + size);
}

void Channel::PutString(const std::string& s) {
  Put<uint64_t>(s.size());
  PutBytes(s.data(), s.size());
}

void Channel::PutDoubles(const std::vector<double>& values) {
  Put<uint64_t>(values.size());
  PutBytes(values.data(), values.size() * sizeof(double));
}

void Channel::PutDoubles(size_t n, const std::function<double(size_t)>& at) {
  Put<uint64_t>(n);
  for (size_t i = 0; i < n; ++i) Put(at(i));
}

void Channel::Flush() {
  WriteAll(out_buf_.data(), out_buf_.size());
  out_buf_.clear();
}

void Channel::WriteAll(const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = write(out_, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Closed();
    data += n;
    size -= static_cast<size_t>(n);
  }
}

void Channel::GetBytes(void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    if (in_pos_ == in_buf_.size()) {
      in_buf_.resize(kBufferBytes);
      ssize_t n;
      do {
        n = read(in_, in_buf_.data(), in_buf_.size());
      } while (n < 0 && errno == EINTR);
      if (n <= 0) Closed();
      in_buf_.resize(static_cast<size_t>(n));
      in_pos_ = 0;
    }
    const size_t take = std::min(size, in_buf_.size() - in_pos_);
    std::memcpy(p, in_buf_.data() + in_pos_, take);
    in_pos_ += take;
    p += take;
    size -= take;
  }
}

std::string Channel::GetString() {
  std::string s(Get<uint64_t>(), '\0');
  GetBytes(s.data(), s.size());
  return s;
}

std::vector<double> Channel::GetDoubles() {
  std::vector<double> values(Get<uint64_t>());
  GetBytes(values.data(), values.size() * sizeof(double));
  return values;
}

}  // namespace perfbench
