"""``python -m abstain`` and the ``abstain`` console script: run the CLI as
a program, so that each command imports only the layers it runs."""
import runpy


def main() -> None:
    runpy.run_module("abstain.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
