#ifndef RIGPM_SERVER_TOOL_MAIN_H_
#define RIGPM_SERVER_TOOL_MAIN_H_

namespace rigpm::server {

/// The `rigpm_cli serve` and `rigpm_cli client` subcommands: argv[1] is the
/// subcommand word, and the flags start at argv[2].

/// Loads an engine (snapshot or text graph), serves until SIGINT/SIGTERM or
/// a remote shutdown request, prints final serving stats. Returns a process
/// exit code.
int ServeToolMain(int argc, char** argv);

/// One-shot client: connects, issues the requested operation(s), prints
/// results in the CLI's "N occurrence(s)" format. Returns a process exit
/// code.
int ClientToolMain(int argc, char** argv);

}  // namespace rigpm::server

#endif  // RIGPM_SERVER_TOOL_MAIN_H_
