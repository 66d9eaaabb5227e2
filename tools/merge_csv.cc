/**
 * @file
 * merge_csv - reassemble a sharded sweep into one canonical CSV.
 *
 *   sweep --shard 0/2 --out s0.csv     # host A
 *   sweep --shard 1/2 --out s1.csv     # host B
 *   merge_csv --out grid.csv s0.csv s1.csv
 *
 * Each shard file carries a manifest (shard id, grid signature, cell
 * count) written by `sweep --shard`. merge_csv validates that the
 * shards belong to the same sweep, that none is missing or duplicated,
 * and that every grid cell is covered, then writes the full grid in
 * canonical (config, app) order — byte-identical to the same sweep run
 * unsharded. Any inconsistency is fatal: a silently short result grid
 * is worse than no grid.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/sweep_io.hh"
#include "sim/logging.hh"

using namespace barre;

static int
mergeCsvMain(int argc, char **argv)
{
    std::string out_file;
    std::vector<std::string> shard_files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--out") {
            if (i + 1 >= argc)
                barre_fatal("--out needs a value");
            out_file = argv[++i];
        } else if (arg == "--help" || arg == "-h" ||
                   arg.rfind("--", 0) == 0) {
            std::fprintf(stderr,
                         "usage: merge_csv [--out FILE] "
                         "shard0.csv shard1.csv ...\n");
            return arg == "--help" || arg == "-h" ? 0 : 1;
        } else {
            shard_files.push_back(arg);
        }
    }
    if (shard_files.empty())
        barre_fatal("no shard files given (see --help)");

    std::vector<ShardFile> shards;
    for (const auto &path : shard_files) {
        std::ifstream is(path);
        if (!is)
            barre_fatal("cannot read %s", path.c_str());
        shards.push_back(readShardCsv(is, path));
    }

    std::string merged = mergeShards(shards);

    if (out_file.empty()) {
        std::cout << merged;
    } else {
        std::ofstream os(out_file);
        if (!os)
            barre_fatal("cannot write %s", out_file.c_str());
        os << merged;
        std::printf("merged %zu shards (%zu cells) into %s\n",
                    shards.size(), shards.front().total_cells,
                    out_file.c_str());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(mergeCsvMain, argc, argv);
}
