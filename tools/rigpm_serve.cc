// rigpm_serve — snapshot-backed query daemon.
//
// Loads a graph + pre-built reachability index once (ideally from a binary
// engine snapshot, see storage/snapshot.h and `rigpm_cli snapshot`) and
// serves pattern queries over a Unix-domain or TCP socket until SIGINT,
// SIGTERM, or a client shutdown request. Protocol: server/protocol.h;
// scripted access: `rigpm_cli client`.
//
//   rigpm_serve --snapshot G.snap --socket /tmp/rigpm.sock --workers 4
//   rigpm_serve --graph G.txt --port 7771
//   rigpm_serve --snapshot G.snap --delta G.delta --socket /tmp/rigpm.sock
//
// With --delta, the daemon serves base + the whole log from its first
// query, and a client `--refresh` replays the log's new records
// (storage/delta_log.h) and swaps the refreshed engine in live — no
// restart, no dropped connections.
//
// Flags are shared with `rigpm_cli serve` (src/server/tool_main.h).

#include "server/tool_main.h"

int main(int argc, char** argv) {
  return rigpm::server::ServeToolMain(argc, argv, 1);
}
