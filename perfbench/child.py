"""Set-up tasks run in a child process, so that their memory does not count
in the workload's peak RSS.

    python3 perfbench/child.py reference  '{"work": ..., "seed": ..., "model": {...}}'
    python3 perfbench/child.py checkpoint '{"work": ..., "seed": ..., "train_config": {...}, "epochs": ...}'

``reference`` labels ``vol`` of the work directory with a float64 copy of
the workload's float32 net and writes ``ref``; ``checkpoint``
trains on ``data`` and leaves ``setup/best.ckpt``.
"""

import json
import sys

import env


def reference(work, seed, model):
    import numpy as np

    from phnet.data import read_volume, write_volume
    from phnet.harness import predict_label_volume
    from phnet.model import PHNet
    from workloads import model_config

    cfg = model_config(model)
    net64 = PHNet(cfg, seed=seed, dtype=np.float64)
    for (_, p64), (_, p32) in zip(net64.named_parameters(),
                                  PHNet(cfg, seed=seed).named_parameters()):
        p64.data[...] = p32.data
    vol = read_volume(f"{work}/vol")
    write_volume(f"{work}/ref", predict_label_volume(net64, vol, cfg))


def checkpoint(work, seed, train_config, epochs):
    from phnet.harness import train
    from workloads import train_config as make_config

    train(make_config(train_config, f"{work}/data", f"{work}/setup", seed, epochs))


TASKS = {"reference": reference, "checkpoint": checkpoint}

if __name__ == "__main__":
    env.prepare()
    TASKS[sys.argv[1]](**json.loads(sys.argv[2]))
