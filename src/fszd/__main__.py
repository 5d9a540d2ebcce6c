"""``python -m fszd``: the same command line as the ``fszd`` script."""
from .cli import main

main()
