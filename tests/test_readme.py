"""README's CLI block: every command parses, reads files that exist, and runs."""

import json
import re
import shlex
import shutil
from pathlib import Path

from melformer.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# Options whose value is a file or directory the command reads.
READS = ("--config", "--manifest", "--init-checkpoint")

# A tiny dataset and a 2-step budget, set on every command that takes the option.
TINY = {"--clips-per-class": "3", "--max-steps": "2", "--points": "1"}


def cli_commands() -> list[list[str]]:
    """The melformer commands of README's CLI block, each as its argv."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "melformer", line
            commands.append(words[1:])
    return commands


def shrink(argv: list[str]) -> list[str]:
    """The command at TINY's values; the 500-step pretraining checkpoint it
    names becomes the 2-step one."""
    argv = [word.replace("ckpt-00000500", "ckpt-00000002") for word in argv]
    for option, value in TINY.items():
        if option in argv:
            argv[argv.index(option) + 1] = value
        elif option in COMMANDS[argv[0]][2].split():
            argv += [option, value]
    return argv


def test_every_command_parses():
    commands = cli_commands()
    assert [argv[0] for argv in commands] == [
        "synthdata", "pretrain", "finetune", "evaluate", "extract", "gradcheck", "paramcount",
    ]
    for argv in commands:
        build_parser().parse_args(argv)


def test_every_repo_path_it_reads_exists():
    """A path the block reads is a repo file unless an earlier command wrote it."""
    written, from_repo = set(), []
    for argv in cli_commands():
        args = build_parser().parse_args(argv)
        reads = [getattr(args, option[2:].replace("-", "_"), None) for option in READS]
        for path in filter(None, reads + list(getattr(args, "inputs", []))):
            if Path(path).parts[0] not in written:
                from_repo.append(path)
        if getattr(args, "out_dir", None):
            written.add(Path(args.out_dir).parts[0])
    assert from_repo
    for path in from_repo:
        assert (ROOT / path).is_file(), path
    example = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    assert json.loads((ROOT / "configs/toy.json").read_text()) == json.loads(example)


def test_command_chain_runs_on_a_tiny_dataset(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in cli_commands():
        assert main(shrink(argv)) == 0, argv
