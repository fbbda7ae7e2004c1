"""symcast: continual one-step-ahead prediction over symbol streams.

Symbol groups are encoded into sparse integer classes by positional
match scoring against a reference row; a deviant-mean learner then
predicts each class from its predecessor and corrects itself from the
signed mismatch after every observation, through both the train and
test phases.
"""

__version__ = "0.1.0"

# Each module's __all__ says which of its names are public; the package
# republishes exactly those.
from . import encoder, errors, ingest, learner, pipeline
from .encoder import *
from .errors import *
from .ingest import *
from .learner import *
from .pipeline import *

__all__: list[str] = []
__all__ += encoder.__all__
__all__ += errors.__all__
__all__ += ingest.__all__
__all__ += learner.__all__
__all__ += pipeline.__all__
