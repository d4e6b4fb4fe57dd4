#include "net/reactor.h"

#include <utility>

namespace hypermine::net {

Reactor::Reactor(size_t reactor_index, EventLoop reactor_loop)
    : index(reactor_index),
      loop(std::move(reactor_loop)),
      read_scratch(64u << 10) {}

void Reactor::PushHandoff(Socket socket) {
  {
    MutexLock lock(inbox_mutex);
    inbox.push_back(std::move(socket));
  }
  loop.Wakeup();
}

std::vector<Socket> Reactor::TakeHandoffs() {
  std::vector<Socket> adopted;
  MutexLock lock(inbox_mutex);
  adopted.swap(inbox);
  return adopted;
}

}  // namespace hypermine::net
