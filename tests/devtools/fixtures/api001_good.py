"""API001 clean: fields and flags agree."""

import argparse
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    jobs: int = 1
    store: str = ""
    retries: int = 0
    progress: object = None  # reprolint: cli-exempt


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", default="")
    parser.add_argument("--retries", type=int, default=0)
    return parser
