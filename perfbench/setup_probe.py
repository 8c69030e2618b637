"""Time one user set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first episode: importing hospgnn
(numpy included), loading the three HOSPEMB splits and init_params.
run.py starts this script several times and reports the median; each
start is a fresh process, so every import is a cold import.

Usage: setup_probe.py <src dir> <split dir> <seed>
"""

import sys
from time import perf_counter


def main(argv):
    src, split_dir, seed = argv
    sys.path.insert(0, src)
    # imports neither numpy nor hospgnn, so both load inside the timing
    from workloads import model_config

    start = perf_counter()
    import hospgnn

    for split in ("train", "validation", "test"):
        hospgnn.load_dataset(f"{split_dir}/{split}.emb", split)
    hospgnn.init_params(model_config(), seed=int(seed))
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
